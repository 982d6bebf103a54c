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


def cluster_rewards(batch, clustering: Clustering, scenario: Scenario,
                    params: AntennaParams, method: str, known=None) -> list:
    """Reward matrix (n, Z) of each (center, width) list in ``batch``: entry
    (i, z) is width i times cluster z's rate density at center i, zero for
    a zero width or a user-less cluster; None for a list with a center where
    a cluster's maximum-ratio column collapsed.

    The batch's distinct live centers are built once, as one
    ``build_channels`` stack that takes the gain rows of ``known``
    (``cegmm.evaluate_candidates``) it holds, and each cluster rates its
    C-contiguous ``np.ix_`` slice under ``mimo.fallback_sinrs``, so every
    density is the bits of a lone center's on the cluster's sub-drop.  A collapsed column
    flags its slice alone and fails only the lists that hold its center.
    """
    ue_sets = cluster_ue_sets(clustering)
    lists = [[(float(c), float(w)) for c, w in cands] for cands in batch]
    centers = np.unique([c for cands in lists for c, w in cands if w > 0.0])
    density = np.zeros((centers.size, len(ue_sets)))
    collapsed = np.zeros(centers.size, dtype=bool)
    if centers.size:
        h = build_channels(scenario, params, centers, known)
        every = np.arange(centers.size)
        for z, ues in enumerate(ue_sets):
            if ues:
                aps = sorted(int(a) for a in clustering.clusters[z])
                gammas, dead = fallback_sinrs(h[np.ix_(every, ues, aps)],
                                              method, scenario.tx_psd[ues],
                                              scenario.noise_psd)
                density[:, z] = np.sum(np.log2(1.0 + gammas), axis=-1)
                collapsed |= dead
    out = []
    for cands in lists:
        widths = np.array([w for _, w in cands])
        live = np.flatnonzero(widths > 0.0)
        at = np.searchsorted(centers, [cands[i][0] for i in live])
        if collapsed[at].any():
            out.append(None)
            continue
        rewards = np.zeros((len(cands), len(ue_sets)))
        rewards[live] = widths[live, None] * density[at]
        out.append(rewards)
    return out


def assign_greedily(candidates, rewards: np.ndarray, clustering: Clustering,
                    min_avg_rate: float) -> ClusterPlan:
    """Hand the disjoint (center, width) ``candidates`` to clusters by their
    ``cluster_rewards`` matrix, rate floor first.

    Candidates are visited in descending order of their best-cluster reward.
    While some user-serving cluster sits below the per-user floor and values
    the candidate, the candidate goes to the best such cluster; otherwise it
    goes to the cluster that values it most.  Ties fall to the lower index.
    Infeasibility is reported through the flag, never as an exception.
    """
    # Python floats: the same doubles, compared and summed as IEEE doubles
    rows = rewards.tolist()
    clusters = range(rewards.shape[1])
    cands = [(float(c), float(w)) for c, w in candidates]
    order = sorted(range(len(cands)), key=lambda i: (-max(rows[i]), i))
    assigned: list[list[int]] = [[] for _ in clusters]
    totals = [0.0 for _ in clusters]
    counts = [float(len(s)) for s in cluster_ue_sets(clustering)]
    for i in order:
        row = rows[i]
        deficient = [z for z in clusters
                     if counts[z] > 0 and totals[z] < min_avg_rate * counts[z]
                     and row[z] > 0.0]
        # the best cluster, ties to the lower index
        z_star = max(deficient or clusters, key=lambda z: (row[z], -z))
        assigned[z_star].append(i)
        totals[z_star] += row[z_star]

    owned = [sorted(a, key=lambda i: cands[i][0]) for a in assigned]
    rates = tuple(tuple(rows[i][z] for i in idx)
                  for z, idx in enumerate(owned))
    cluster_rates = tuple(float(sum(r)) for r in rates)
    avg_rates = tuple(t / n if n > 0 else 0.0
                      for t, n in zip(cluster_rates, counts))
    feasible = not any(a < min_avg_rate
                       for a, n in zip(avg_rates, counts) if n > 0)
    return ClusterPlan(tuple(tuple(cands[i] for i in idx) for idx in owned),
                       rates, cluster_rates, avg_rates, feasible)


def greedy_assign(candidates, clustering: Clustering, min_avg_rate: float,
                  scenario: Scenario, params: AntennaParams,
                  method: str) -> ClusterPlan:
    """The one-list case of ``cluster_rewards`` then ``assign_greedily``:
    the greedy assignment of ``candidates``.  Raises SingularChannel where
    a maximum-ratio column collapsed at one of its centers."""
    rewards = cluster_rewards([candidates], clustering, scenario, params,
                              method)[0]
    if rewards is None:
        raise SingularChannel("precoding column collapsed to zero")
    return assign_greedily(candidates, rewards, clustering, min_avg_rate)


def allocate_clustered(scenario: Scenario, params: AntennaParams,
                       band: tuple[float, float], method: str,
                       hyper: CeHyperparams, qos: QosConfig,
                       clustering: Clustering, rng: np.random.Generator,
                       total_bandwidth: float | None = None) -> ClusterPlan:
    """Cross-entropy search scored through the greedy cluster assignment.

    The search is ``cegmm.ce_search``, the loop of the cluster-free
    allocator, so with a single all-AP cluster and a zero rate floor the two
    return the same plan for the same generator state.  Each iteration is
    rated in lock-step by one ``cluster_rewards`` call, and each candidate
    assigned on its block by ``assign_greedily``; a candidate with a
    collapsed maximum-ratio column scores None.  The best plan ever seen
    wins, feasible plans strictly before infeasible ones.
    """
    def score(batch, known):
        return [None if rewards is None else
                assign_greedily(subchannels, rewards, clustering,
                                qos.min_cluster_avg_rate)
                for subchannels, rewards in zip(batch, cluster_rewards(
                    batch, clustering, scenario, params, method, known))]

    return ce_search(score, scenario, params, band, method, hyper, qos, rng,
                     total_bandwidth)


def write_cluster_plan_csv(plan: ClusterPlan, fp) -> None:
    """One row per assigned subchannel with its cluster's summary figures."""
    fp.write("cluster_index,subchannel_index,center_hz,width_hz,"
             "subchannel_rate_bps,cluster_avg_rate_per_ue_bps,feasible\n")
    for z, subs in enumerate(plan.subchannels):
        for i, (center, width) in enumerate(subs):
            fp.write(f"{z},{i},{round(center)},{round(width)},"
                     f"{plan.subchannel_rates[z][i]:.6g},"
                     f"{plan.avg_rates[z]:.6g},{plan.feasible}\n")
