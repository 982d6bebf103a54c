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
                   freespace_amplitude, zf_closed_form)
from .scenario import Scenario

KMEANS_TOL = 1e-6          # m, centroid movement threshold
KMEANS_MAX_ITER = 100
AFFINITY_DAMPING = 0.5
AFFINITY_MAX_ITER = 200
AFFINITY_STABLE_ITERS = 20
SCORE_CHUNK = 4            # UEs precoded at a time: bounds the temporaries
GRAM_POINTS = 2 ** 13      # Gram entries gathered at a time: the same


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

    The messages are updated in place in preallocated (M, M) arrays, each
    damped as ``AFFINITY_DAMPING * old + (1 - AFFINITY_DAMPING) * new``
    in that order of operations.  On the 96 drops of the benchmark's
    hierarchical sweep (64 to 128 APs) every run converged, after 26 to 47
    iterations, the last ``AFFINITY_STABLE_ITERS`` of each being the
    stability window.
    """
    pos = np.asarray(ap_positions, dtype=float)
    m = pos.shape[0]
    if m == 1:
        return [(0,)], True
    sim = -np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    off_diag = sim[~np.eye(m, dtype=bool)]
    np.fill_diagonal(sim, np.median(off_diag))

    resp, avail = np.zeros((m, m)), np.zeros((m, m))
    # the next messages and two scratch arrays; the message pairs swap
    resp_next, avail_next = np.empty((m, m)), np.empty((m, m))
    aug, new = np.empty((m, m)), np.empty((m, m))
    rows = np.arange(m)
    exemplars: tuple[int, ...] = ()
    stable = 0
    converged = False
    for _ in range(AFFINITY_MAX_ITER):
        # responsibilities: how well k suits i versus the runner-up
        np.add(avail, sim, out=aug)
        top_idx = np.argmax(aug, axis=1)
        top = aug[rows, top_idx]
        aug[rows, top_idx] = -np.inf
        second = np.max(aug, axis=1)
        np.subtract(sim, top[:, None], out=new)
        new[rows, top_idx] = sim[rows, top_idx] - second
        np.multiply(resp, AFFINITY_DAMPING, out=resp_next)
        new *= 1.0 - AFFINITY_DAMPING
        resp_next += new
        resp_diag = resp_next.ravel()[::m + 1]

        # availabilities: accumulated evidence that k is an exemplar
        clipped = np.maximum(resp_next, 0.0, out=aug)
        clipped.ravel()[::m + 1] = resp_diag
        col = clipped.sum(axis=0)
        np.subtract(col, clipped, out=new)
        np.minimum(0.0, new, out=new)
        new.ravel()[::m + 1] = col - resp_diag
        np.multiply(avail, AFFINITY_DAMPING, out=avail_next)
        new *= 1.0 - AFFINITY_DAMPING
        avail_next += new

        current = tuple(int(k) for k in np.flatnonzero(
            resp_diag + avail_next.ravel()[::m + 1] > 0.0))
        fixed = (np.array_equal(resp_next, resp)
                 and np.array_equal(avail_next, avail))
        resp, resp_next = resp_next, resp
        avail, avail_next = avail_next, avail
        if fixed:
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


class GramTable:
    """The cluster-scoring state of one drop: the Gram table of the live
    clusters, and the scores already rated.

    The Gram of the cluster C in slot z at the scoring frequency of UE n is
    the (K, K) ``stack[n][:, C] @ stack[n][:, C]^H``, built with one
    product per cluster from the drop's ``channel_stack``.  Grams are
    Hermitian, so ``grams[z, n]`` keeps its upper triangle, row by row,
    and ``packed[r, c]`` is the position of entry (min(r, c), max(r, c));
    a gathered block takes its lower triangle as the conjugate of the
    upper.  Grams add over APs, so a merged cluster's Gram is the sum of
    its parts': a merge is ``grams[i] += grams[j]``, which frees slot j,
    and the table never holds more slots than the clusters it was built
    from.  ``served[z]`` masks the UEs whose ``ue_to_ap`` lies in slot z.
    """

    def __init__(self, scenario: Scenario, method: str, ue_to_ap: np.ndarray,
                 stack: np.ndarray, clusters):
        self.scenario, self.method = scenario, method
        self.ue_to_ap, self.stack = ue_to_ap, stack
        self.members = [tuple(sorted(int(a) for a in c)) for c in clusters]
        if not all(self.members):
            raise ValueError("empty cluster")
        self.slot = {c: z for z, c in enumerate(self.members)}
        self.sizes = np.array([len(c) for c in self.members])
        upper = np.triu_indices(scenario.num_ues)
        self.packed = np.empty((scenario.num_ues,) * 2, dtype=np.intp)
        self.packed[upper] = self.packed.T[upper] = np.arange(upper[0].size)
        self.grams = np.empty((len(self.members), scenario.num_ues,
                               upper[0].size), dtype=complex)
        in_slot = np.zeros((len(self.members), scenario.num_aps), dtype=bool)
        for z, members in enumerate(self.members):
            h = stack[:, :, list(members)]
            gram = h @ h.conj().swapaxes(-1, -2)
            self.grams[z] = gram[:, upper[0], upper[1]]
            in_slot[z, list(members)] = True
        self.served = in_slot[:, ue_to_ap]
        self.scored: dict[tuple[int, ...], float] = {}
        self.parts: dict[tuple[int, ...], tuple] = {}

    def _live(self, cluster: tuple[int, ...]) -> int:
        """The slot of a live cluster.  A cluster without one is the union
        of a pair scored earlier, whose parts are live or are such unions
        in turn: naming it commits that merge."""
        if cluster not in self.slot:
            a, b = self.parts.pop(cluster)
            i, j = self._live(a), self._live(b)
            del self.slot[a], self.slot[b]
            self.grams[i] += self.grams[j]
            self.served[i] |= self.served[j]
            self.sizes[i] += self.sizes[j]
            self.members[i] = cluster
            self.slot[cluster] = i
        return self.slot[cluster]

    def scores(self, pairs) -> np.ndarray:
        """The merge rules' score callback: the per-AP spectral efficiency
        of each candidate ``(a, b)`` of live sorted AP tuples, the union of
        a and b, or a alone where b is None.  Every union not scored before
        in this drop goes to one ``cluster_scores`` call, so no AP tuple is
        scored twice."""
        keys = [a if b is None else tuple(sorted(a + b)) for a, b in pairs]
        fresh = {}
        for (a, b), key in zip(pairs, keys):
            if b is not None:
                self.parts.setdefault(key, (a, b))
            if key not in self.scored and key not in fresh:
                self._live(a)
                if b is not None:
                    self._live(b)
                fresh[key] = (a, b)
        if fresh:
            self.scored.update(zip(fresh, cluster_scores(
                self, list(fresh.values()))))
        return np.array([self.scored[key] for key in keys])

    def blocks(self, a: np.ndarray, b: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
        """Gram blocks (N, S, S, S) of N candidates: block i holds, for each
        UE n in ``rows[i]``, the Gram at n's frequency over ``rows[i]`` of
        slot ``a[i]``, plus that of slot ``b[i]`` where ``b[i] >= 0``."""
        flat = self.grams.reshape(-1)
        pairs = self.packed[rows[:, None, :, None], rows[:, None, None, :]]
        index = rows[:, :, None, None] * self.grams.shape[-1] + pairs
        a_at = (a * self.grams[0].size)[:, None, None, None]
        b_at = (b * self.grams[0].size)[:, None, None, None]
        gram = flat.take(index + a_at)
        joined = b >= 0
        if joined.all():
            gram += flat.take(index + b_at)
        elif joined.any():
            gram[joined] += flat.take(index[joined] + b_at[joined])
        lower = np.tri(rows.shape[1], k=-1, dtype=bool)
        return np.conjugate(gram, out=gram, where=lower)


def cluster_scores(table: GramTable, pairs) -> np.ndarray:
    """Per-AP spectral efficiency of each candidate ``(a, b)`` of live
    clusters of ``table`` (their union, or a alone where b is None): the
    sum spectral efficiency of the served UEs over the AP count, in one
    call for a whole merge round.

    Each UE's SINR is taken from the intra-cluster channel alone at the
    clamped peak frequency of its serving AP.  Zero forcing with unit-norm
    columns nulls the other UEs, so UE n scores the closed form
    p_n / (noise [G^-1]_nn), G the Gram of its channel, wherever
    ``mimo.zf_closed_form`` certifies the inverse.  Candidates are grouped
    by served count S; a group's Grams come from ``GramTable.blocks``, a
    pair's the sum of its parts', as (chunk, S, S, S) stacks of at most
    ``GRAM_POINTS`` entries, each scored as one (chunk S, S, S) stack.
    The rest goes to ``mimo.fallback_sinrs`` on the channel stack,
    ``SCORE_CHUNK`` UEs at a time: an uncertified slice (the closed form
    if the Gram of its channel slice certifies after all, else zero
    forcing if it passes the exact condition test, else maximum ratio),
    every slice of a candidate serving more UEs than it has APs, and
    'mrt'.  A collapsed maximum-ratio column raises SingularChannel.
    A void candidate scores 0.0.  Each candidate's terms are summed left
    to right, in UE order.
    """
    sc = table.scenario
    a = np.array([table.slot[p] for p, _ in pairs], dtype=np.intp)
    b = np.array([-1 if q is None else table.slot[q] for _, q in pairs],
                 dtype=np.intp)
    paired = b >= 0
    served = table.served[a]
    served[paired] |= table.served[b[paired]]
    sizes = table.sizes[a] + np.where(paired, table.sizes[b], 0)
    counts = served.sum(axis=1)
    out = np.zeros(len(pairs))
    for s in np.flatnonzero(np.bincount(counts)[1:]) + 1:
        group = np.flatnonzero(counts == s)
        rows = np.nonzero(served[group])[1].reshape(group.size, s)
        own = np.empty((group.size, s))
        precoded = np.ones((group.size, s), dtype=bool)
        closed = (np.flatnonzero(s <= sizes[group]) if table.method == "zf"
                  else group[:0])
        step = max(1, GRAM_POINTS // s ** 3)
        for first in range(0, closed.size, step):
            chunk = closed[first:first + step]
            cand = group[chunk]
            gram = table.blocks(a[cand], b[cand],
                                rows[chunk]).reshape(-1, s, s)
            sinrs, certified = zf_closed_form(
                gram, np.repeat(sc.tx_psd[rows[chunk]], s, axis=0),
                sc.noise_psd)
            # slice (i, n) holds the Gram at the frequency of UE rows[i, n];
            # the precoded pass below overwrites the uncertified entries
            own[chunk] = sinrs.reshape(-1, s, s).diagonal(axis1=1, axis2=2)
            precoded[chunk] = ~certified.reshape(-1, s)
        for g in np.flatnonzero(precoded.any(axis=1)):
            members = sorted(table.members[a[group[g]]] + (
                table.members[b[group[g]]] if paired[group[g]] else ()))
            own[g, precoded[g]] = _precoded_sinrs(
                table, rows[g], members, np.flatnonzero(precoded[g]))
        # summed left to right like the per-UE reference; np.sum pairs terms
        out[group] = (np.add.accumulate(np.log2(1.0 + own), axis=1)[:, -1]
                      / sizes[group])
    return out


def _precoded_sinrs(table: GramTable, rows: np.ndarray, members,
                    ues: np.ndarray) -> np.ndarray:
    """SINRs of the served UEs ``rows[ues]`` of one cluster (served UEs
    ``rows``, APs ``members``) under ``mimo.fallback_sinrs``,
    ``SCORE_CHUNK`` channel slices at a time; raises SingularChannel on a
    collapsed column."""
    sc = table.scenario
    own = np.empty(ues.size)
    for first in range(0, ues.size, SCORE_CHUNK):
        chunk = ues[first:first + SCORE_CHUNK]
        h = table.stack[np.ix_(rows[chunk], rows, members)]
        gammas, collapsed = fallback_sinrs(h, table.method, sc.tx_psd[rows],
                                           sc.noise_psd)
        if collapsed.any():
            raise SingularChannel("precoding column collapsed to zero")
        # slice n holds the channels at the frequency of UE rows[chunk[n]]
        own[first:first + chunk.size] = gammas[np.arange(chunk.size), chunk]
    return own


def per_ap_spectral_efficiency(cluster, scenario: Scenario, method: str,
                               ue_to_ap: np.ndarray, stack: np.ndarray) -> float:
    """The ``cluster_scores`` of one cluster alone, on a ``GramTable`` of
    that cluster: its served UEs' sum spectral efficiency per AP.

    ``ue_to_ap`` is the drop's ``strongest_aps`` and ``stack`` its
    ``channel_stack``.  The closed form drops the interference that
    precoding leaves by rounding, and a merged cluster's Gram is summed
    over its parts, not taken in one product over the union: over the
    11,473 scores of the 96 drops of the benchmark's hierarchical sweep
    the scores move by 6.6e-16 relative at most from one product's and by
    1.84e-15 from the precoded scores (2.19e-15 over the tests' cluster
    pairs), and no cluster changes; the score only ranks candidate
    clusters.
    """
    members = tuple(sorted(int(a) for a in cluster))
    table = GramTable(scenario, method, ue_to_ap, stack, [members])
    return float(cluster_scores(table, [(members, None)])[0])


def merge_void_clusters(clusters, ue_to_ap: np.ndarray, score):
    """Fold every cluster that serves no UE into a serving cluster.

    Void clusters are handled in ascending index order; each joins the
    serving cluster whose merged score is largest (``np.argmax``), where
    ``score`` maps a list of pairs ``(a, b)`` of sorted AP tuples to the
    per-AP spectral efficiencies of their unions, one call per void.  When
    no cluster serves anyone (``ue_to_ap`` names no member) there is
    nothing to merge into and the input is returned unchanged.
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
        best = int(np.argmax(score([(c, void) for c in items])))
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

    ``score`` maps a list of pairs ``(a, b)`` of sorted AP tuples (b None:
    a alone) to the per-AP spectral efficiencies of their unions.  The
    pair scores of the live clusters are kept in a table: the first round
    scores every cluster and every pair in one call, and each later round
    only the merged cluster against the others.  A merge goes to the first
    strictly largest positive gain in the scan order (i < j, row by row) of
    the current cluster list, whose pair is removed and whose merged
    cluster is appended; a NaN gain never wins.
    """
    items = [tuple(sorted(int(a) for a in c)) for c in clusters]
    n = len(items)
    upper = np.triu_indices(n, 1)
    first = score([(c, None) for c in items]
                  + [(items[i], items[j]) for i, j in zip(*upper)])
    scores = np.asarray(first[:n], dtype=float)
    merged = np.full((n, n), np.nan)
    merged[upper] = first[n:]
    while len(items) > 1:
        sizes = np.array([len(c) for c in items])
        weighted = scores * sizes
        gains = merged - ((weighted[:, None] + weighted)
                          / (sizes[:, None] + sizes))
        gains[np.isnan(gains)] = -np.inf     # NaN gains and unpaired cells
        best = int(np.argmax(gains))
        if not gains.flat[best] > 0.0:
            break
        i, j = divmod(best, len(items))
        union = tuple(sorted(items[i] + items[j]))
        keep = [z for z in range(len(items)) if z not in (i, j)]
        items = [items[z] for z in keep] + [union]
        scores = np.append(scores[keep], merged[i, j])
        merged = np.pad(merged[np.ix_(keep, keep)], (0, 1),
                        constant_values=np.nan)
        if keep:
            merged[:-1, -1] = score([(c, union) for c in items[:-1]])
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

    The pipeline owns the drop context: the association, the channel
    stack and one ``GramTable`` over the seeds serve both merge stages,
    each merge round is one ``cluster_scores`` call, and no AP tuple is
    scored twice per drop.
    """
    seeds, converged = affinity_propagation(scenario.ap_positions)
    ue_to_ap = strongest_aps(scenario, params, band_upper)
    table = GramTable(scenario, method, ue_to_ap,
                      channel_stack(scenario, params, band_upper, ue_to_ap),
                      seeds)
    merged = merge_void_clusters(seeds, ue_to_ap, table.scores)
    merged = hierarchical_merge(merged, table.scores)
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
