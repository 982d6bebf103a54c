"""AP grouping for scalable service areas.

Two routes to a partition of the access points: a geometry-only k-means
baseline, and a propagation-aware pipeline that seeds clusters with
affinity propagation, folds user-less clusters into their best neighbours,
then keeps merging cluster pairs while the spectral efficiency per AP
improves.  Users attach to whichever AP gives them the strongest received
signal at that link's own peak frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antenna import AntennaParams, gain, peak_frequency
from .mimo import (SingularChannel, build_channels, fallback_sinrs,
                   freespace_amplitude, zf_certified)
from .scenario import Scenario

KMEANS_TOL = 1e-6          # m, centroid movement threshold
KMEANS_MAX_ITER = 100
AFFINITY_DAMPING = 0.5
AFFINITY_MAX_ITER = 200
AFFINITY_STABLE_ITERS = 20
SCORE_CHUNK = 4            # UEs scored at a time: bounds the temporaries


@dataclass(frozen=True)
class Clustering:
    """A partition of the APs plus the user-to-AP association it induces."""

    clusters: tuple[tuple[int, ...], ...]
    ue_to_ap: np.ndarray
    ue_to_cluster: np.ndarray
    converged: bool = True

    def __post_init__(self):
        seen: set[int] = set()
        for members in self.clusters:
            if not members:
                raise ValueError("empty cluster")
            if seen & set(members):
                raise ValueError("clusters overlap")
            seen |= set(members)
        self.ue_to_ap.setflags(write=False)
        self.ue_to_cluster.setflags(write=False)
        for ap, z in zip(self.ue_to_ap, self.ue_to_cluster):
            if ap not in self.clusters[z]:
                raise ValueError("serving AP outside the serving cluster")

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
    return np.argmin(d, axis=1)


def kmeans_clusters(ap_positions, num_clusters: int, rng) -> list[tuple[int, ...]]:
    """Lloyd's algorithm on planar AP positions.

    Initial centroids come from farthest-point traversal starting at an AP
    drawn from ``rng``; a cluster that empties out is re-seeded with the AP
    farthest from its assigned centroid.
    """
    pos = np.asarray(ap_positions, dtype=float)
    m = pos.shape[0]
    if not 1 <= num_clusters <= m:
        raise ValueError("num_clusters must lie in [1, num_aps]")

    start = int(rng.integers(m))
    chosen = [start]
    dist = np.linalg.norm(pos - pos[start], axis=1)
    for _ in range(num_clusters - 1):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(pos - pos[nxt], axis=1))
    centroids = pos[chosen].copy()

    assign = _nearest(pos, centroids)
    for _ in range(KMEANS_MAX_ITER):
        for z in range(num_clusters):
            if not np.any(assign == z):
                far = int(np.argmax(np.linalg.norm(pos - centroids[assign], axis=1)))
                assign[far] = z
        new_centroids = np.array([pos[assign == z].mean(axis=0)
                                  for z in range(num_clusters)])
        moved = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        assign = _nearest(pos, centroids)
        if moved < KMEANS_TOL:
            break
    return [tuple(int(i) for i in np.flatnonzero(assign == z))
            for z in range(num_clusters) if np.any(assign == z)]


def affinity_propagation(ap_positions) -> tuple[list[tuple[int, ...]], bool]:
    """Exemplar-based clustering with negative-distance similarities.

    Preferences sit at the median pairwise similarity so the cluster count
    emerges from the geometry.  Returns the clusters and a flag that is
    False when the exemplar set was still changing at the iteration cap.
    """
    pos = np.asarray(ap_positions, dtype=float)
    m = pos.shape[0]
    if m == 1:
        return [(0,)], True
    sim = -np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    off_diag = sim[~np.eye(m, dtype=bool)]
    np.fill_diagonal(sim, np.median(off_diag))

    resp = np.zeros((m, m))
    avail = np.zeros((m, m))
    exemplars: tuple[int, ...] = ()
    stable = 0
    converged = False
    for _ in range(AFFINITY_MAX_ITER):
        resp_prev, avail_prev = resp, avail
        # responsibilities: how well k suits i versus the runner-up
        aug = avail + sim
        top_idx = np.argmax(aug, axis=1)
        top = aug[np.arange(m), top_idx]
        aug_masked = aug.copy()
        aug_masked[np.arange(m), top_idx] = -np.inf
        second = np.max(aug_masked, axis=1)
        new_resp = sim - top[:, None]
        new_resp[np.arange(m), top_idx] = sim[np.arange(m), top_idx] - second
        resp = AFFINITY_DAMPING * resp + (1.0 - AFFINITY_DAMPING) * new_resp

        # availabilities: accumulated evidence that k is an exemplar
        clipped = np.maximum(resp, 0.0)
        np.fill_diagonal(clipped, np.diag(resp))
        col = clipped.sum(axis=0)
        new_avail = np.minimum(0.0, col[None, :] - clipped)
        np.fill_diagonal(new_avail, col - np.diag(resp))
        avail = AFFINITY_DAMPING * avail + (1.0 - AFFINITY_DAMPING) * new_avail

        current = tuple(int(k) for k in
                        np.flatnonzero(np.diag(resp) + np.diag(avail) > 0.0))
        if (np.array_equal(resp, resp_prev)
                and np.array_equal(avail, avail_prev)):
            # exact message fixed point, e.g. fully identical similarities
            exemplars = current
            converged = True
            break
        if current and current == exemplars:
            stable += 1
            if stable >= AFFINITY_STABLE_ITERS:
                converged = True
                break
        else:
            stable = 0
        exemplars = current

    if not exemplars:
        # preferences never beat the similarities: degenerate single cluster
        return [tuple(range(m))], converged
    ex = np.array(exemplars)
    assign = ex[np.argmax(sim[:, ex], axis=1)]
    assign[ex] = ex
    return [tuple(int(i) for i in np.flatnonzero(assign == k))
            for k in exemplars], converged


def _eval_frequency(params: AntennaParams, angle, band_upper: float):
    """Elementwise peak-gain frequency of links at ``angle``, clamped into
    the operating band (cutoff, band_upper]."""
    return np.clip(peak_frequency(params.cutoff_frequency, angle),
                   params.cutoff_frequency * (1.0 + 1e-9), band_upper)


def rss_matrix(scenario: Scenario, params: AntennaParams,
               band_upper: float) -> np.ndarray:
    """Per-link received strength (num_ues, num_aps): transmit PSD times
    aperture gain times free-space power gain, each link evaluated at its
    own clamped peak frequency (``_eval_frequency``)."""
    f_eval = _eval_frequency(params, scenario.angles, band_upper)
    amp = freespace_amplitude(f_eval, scenario.distances)
    return (scenario.tx_psd[:, None]
            * gain(params, f_eval, scenario.angles) * amp * amp)


def strongest_aps(scenario: Scenario, params: AntennaParams,
                  band_upper: float) -> np.ndarray:
    """Each UE's strongest AP by ``rss_matrix``, ties to the lowest index."""
    return np.argmax(rss_matrix(scenario, params, band_upper),
                     axis=1).astype(np.intp)


def associate_ues(scenario: Scenario, params: AntennaParams, clusters,
                  band_upper: float, ue_to_ap: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Attach every UE to its strongest AP and to that AP's cluster.

    Ties go to the lowest AP index; the association itself never depends on
    the cluster labels.  ``ue_to_ap`` (``strongest_aps``) is computed here
    when None.
    """
    if ue_to_ap is None:
        ue_to_ap = strongest_aps(scenario, params, band_upper)
    ap_to_cluster = np.empty(scenario.num_aps, dtype=np.intp)
    for z, members in enumerate(clusters):
        for ap in members:
            ap_to_cluster[ap] = z
    return ue_to_ap, ap_to_cluster[ue_to_ap]


def channel_stack(scenario: Scenario, params: AntennaParams,
                  band_upper: float, ue_to_ap: np.ndarray) -> np.ndarray:
    """The drop's channels (K, K, M) at every UE's scoring frequency.

    ``stack[k]`` is the full channel at the clamped peak frequency of UE k's
    link to its serving AP ``ue_to_ap[k]``; a cluster's channels are the
    slice ``stack[np.ix_(served, served, members)]``.
    """
    links = scenario.angles[np.arange(scenario.num_ues), ue_to_ap]
    return build_channels(scenario, params,
                          _eval_frequency(params, links, band_upper))


def _inverse_diagonals(gram: np.ndarray) -> np.ndarray:
    """Real diagonals (N, S) of the inverses of a stack of Grams (N, S, S),
    each slice inverted as a lone matrix would be; a slice LAPACK finds
    exactly singular gets a NaN diagonal, which ``zf_certified`` rejects."""
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        inverse = np.full_like(gram, np.nan)
        for n, slice_gram in enumerate(gram):
            try:
                inverse[n] = np.linalg.inv(slice_gram)
            except np.linalg.LinAlgError:
                pass
    return inverse.diagonal(axis1=-2, axis2=-1).real


def per_ap_spectral_efficiency(cluster, scenario: Scenario, method: str,
                               ue_to_ap: np.ndarray, stack: np.ndarray) -> float:
    """Sum spectral efficiency of the cluster's UEs divided by its AP count.

    Each UE's SINR is taken from the intra-cluster channel alone at the
    clamped peak frequency of its serving AP.  Zero forcing with unit-norm
    columns nulls the other UEs, so UE n scores the closed form
    p_n / (noise [G^-1]_nn), G the Gram of its channel, wherever
    ``mimo.zf_certified`` trusts the inverse.  The rest is precoded slice
    by slice through ``mimo.fallback_sinrs``: an uncertified slice (zero
    forcing if it passes the exact condition test, else maximum ratio),
    every slice of a cluster serving more UEs than it has APs, and 'mrt'.
    A collapsed maximum-ratio column raises SingularChannel.  The closed
    form drops the interference that precoding leaves by rounding: scores
    move by 1.84e-15 relative at most over the tests' clusters and the 96
    drops of the benchmark's hierarchical sweep, and no cluster changes;
    the score only ranks candidate clusters.

    ``ue_to_ap`` is the drop's ``strongest_aps`` and ``stack`` its
    ``channel_stack``; the cluster's channels are sliced out of the stack
    ``SCORE_CHUNK`` UEs at a time as (chunk, S, Mc) stacks.  The scores
    equal, bit for bit, one channel build per UE with its lone inverse, or
    its precoder and SINR.
    """
    members = sorted(int(a) for a in cluster)
    if not members:
        raise ValueError("empty cluster")
    member_set = set(members)
    served = [k for k in range(scenario.num_ues) if int(ue_to_ap[k]) in member_set]
    if not served:
        return 0.0
    rows = np.asarray(served)
    tx_psd = scenario.tx_psd[served]
    own = np.empty(len(served))
    precoded = np.arange(len(served))
    if method == "zf" and len(served) <= len(members):
        # gram[n] is the Gram at the frequency of UE n, built in chunks
        gram = np.empty((len(served),) * 3, dtype=complex)
        for first in range(0, len(served), SCORE_CHUNK):
            h = stack[np.ix_(rows[first:first + SCORE_CHUNK], rows, members)]
            gram[first:first + len(h)] = h @ h.conj().swapaxes(-1, -2)
        diagonal = _inverse_diagonals(gram)
        certified = zf_certified(gram, diagonal)
        own[certified] = tx_psd[certified] / (
            scenario.noise_psd * diagonal.diagonal()[certified])
        precoded = np.flatnonzero(~certified)
    for first in range(0, precoded.size, SCORE_CHUNK):
        ues = precoded[first:first + SCORE_CHUNK]
        h = stack[np.ix_(rows[ues], rows, members)]
        gammas, collapsed = fallback_sinrs(h, method, tx_psd,
                                           scenario.noise_psd)
        if collapsed.any():
            raise SingularChannel("precoding column collapsed to zero")
        # slice n holds the channels at the frequency of UE ues[n]
        own[ues] = gammas[np.arange(ues.size), ues]
    # summed left to right like the per-UE reference; np.sum pairs terms
    total = np.add.accumulate(np.log2(1.0 + own))[-1]
    return float(total / len(members))


def merge_void_clusters(clusters, ue_to_ap: np.ndarray, score):
    """Fold every cluster that serves no UE into a serving cluster.

    Void clusters are handled in ascending index order; each joins the
    serving cluster whose merged score is largest, where ``score`` maps a
    sorted AP tuple to its per-AP spectral efficiency.  When no cluster
    serves anyone (``ue_to_ap`` names no member) there is nothing to merge
    into and the input is returned unchanged.
    """
    served_aps = set(int(a) for a in ue_to_ap)
    items = [tuple(sorted(int(a) for a in c)) for c in clusters]
    if not any(set(c) & served_aps for c in items):
        return items
    while True:
        void_idx = next((i for i, c in enumerate(items)
                         if not set(c) & served_aps), None)
        if void_idx is None:
            break
        void = items.pop(void_idx)
        scores = [score(tuple(sorted(c + void))) for c in items]
        best = int(np.argmax(scores))
        items[best] = tuple(sorted(items[best] + void))
    return items


def hierarchical_merge(clusters, score):
    """Greedily merge cluster pairs while per-AP spectral efficiency grows.

    A pair qualifies when the merged score strictly exceeds the per-AP
    efficiency those same APs achieved as two separate clusters (their
    AP-count-weighted average); each round performs the qualifying merge
    with the largest such improvement and rounds stop when none is left.
    Joint precoding never hurts the pooled users, so at ordinary distances
    this folds the partition down aggressively; only clusters whose mutual
    links are negligible stay apart.

    ``score`` maps a sorted AP tuple to its per-AP spectral efficiency.
    Every round asks it for every pair again, so the caller memoises it:
    then only the pairs with the newly merged cluster cost a score.
    """
    items = [tuple(sorted(int(a) for a in c)) for c in clusters]
    scores = [score(c) for c in items]
    while len(items) > 1:
        best_gain = 0.0
        best_pair = None
        best_merged = None
        best_score = 0.0
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                merged = tuple(sorted(items[i] + items[j]))
                merged_score = score(merged)
                size_i, size_j = len(items[i]), len(items[j])
                joint = ((scores[i] * size_i + scores[j] * size_j)
                         / (size_i + size_j))
                gain_ij = merged_score - joint
                if gain_ij > best_gain:
                    best_gain = gain_ij
                    best_pair = (i, j)
                    best_merged = merged
                    best_score = merged_score
        if best_pair is None:
            break
        i, j = best_pair
        items = [c for z, c in enumerate(items) if z not in (i, j)]
        scores = [s for z, s in enumerate(scores) if z not in (i, j)]
        items.append(best_merged)
        scores.append(best_score)
    items.sort(key=lambda c: c[0])
    return items


def _build(scenario: Scenario, params: AntennaParams, clusters,
           band_upper: float, converged: bool,
           ue_to_ap: np.ndarray | None = None) -> Clustering:
    ue_to_ap, ue_to_cluster = associate_ues(scenario, params, clusters,
                                            band_upper, ue_to_ap)
    return Clustering(tuple(tuple(c) for c in clusters), ue_to_ap,
                      ue_to_cluster, converged)


def hierarchical_clustering(scenario: Scenario, params: AntennaParams,
                            band_upper: float, method: str = "zf") -> Clustering:
    """Full propagation-aware pipeline: seed clusters, absorb the user-less
    ones, merge while the per-AP score improves, then re-associate.

    The pipeline owns the drop context: the association and the channel
    stack are computed once, and one memo keyed by the sorted AP tuple
    serves both merge stages, so no cluster is scored twice per drop.
    """
    seeds, converged = affinity_propagation(scenario.ap_positions)
    ue_to_ap = strongest_aps(scenario, params, band_upper)
    stack = channel_stack(scenario, params, band_upper, ue_to_ap)
    memo: dict[tuple[int, ...], float] = {}

    def score(members: tuple[int, ...]) -> float:
        if members not in memo:
            memo[members] = per_ap_spectral_efficiency(
                members, scenario, method, ue_to_ap, stack)
        return memo[members]

    merged = merge_void_clusters(seeds, ue_to_ap, score)
    merged = hierarchical_merge(merged, score)
    return _build(scenario, params, merged, band_upper, converged, ue_to_ap)


def kmeans_clustering(scenario: Scenario, params: AntennaParams,
                      band_upper: float, num_clusters: int, rng) -> Clustering:
    """Geometry-only baseline: k-means clusters plus strongest-AP association."""
    clusters = kmeans_clusters(scenario.ap_positions, num_clusters, rng)
    return _build(scenario, params, clusters, band_upper, True)


def write_clustering_csv(clustering: Clustering, fp) -> None:
    """One row per AP then one per UE, tagged by a leading kind column."""
    fp.write("kind,index,serving_ap,cluster_index\n")
    for z, members in enumerate(clustering.clusters):
        for ap in members:
            fp.write(f"ap,{ap},,{z}\n")
    for k, (ap, z) in enumerate(zip(clustering.ue_to_ap,
                                    clustering.ue_to_cluster)):
        fp.write(f"ue,{k},{int(ap)},{int(z)}\n")
