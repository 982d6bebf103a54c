"""AP grouping: k-means, exemplar message passing, association, merging."""

import io

import numpy as np
import pytest

import lwcf.clustering
import lwcf.mimo
from lwcf.antenna import AntennaParams, peak_frequency
from lwcf.clustering import (
    SCORE_CHUNK,
    Clustering,
    affinity_propagation,
    associate_ues,
    channel_stack,
    hierarchical_clustering,
    hierarchical_merge,
    kmeans_clusters,
    kmeans_clustering,
    merge_void_clusters,
    per_ap_spectral_efficiency,
    rss_matrix,
    strongest_aps,
    write_clustering_csv,
)
from lwcf.mimo import (ChannelMatrix, SingularChannel, build_channel,
                       fallback_sinrs, freespace_amplitude, precode, sinr)
from lwcf.scenario import Scenario, ScenarioConfig, generate_scenario
from oracles import link_distance, link_rss, per_ap_se_per_ue

PARAMS = AntennaParams(1.0, 0.15, 130.0, 100e9)
BAND_UPPER = 200e9


def make_scenario(num_aps=8, num_ues=4, seed=0):
    return generate_scenario(ScenarioConfig(
        area_side=200.0, num_aps=num_aps, num_ues=num_ues,
        elev_diff_range=(5.0, 10.0), total_power=2.0, total_bandwidth=10e9,
        noise_psd=10 ** (-19.8), seed=seed))


def manual_scenario(ap_xy, ue_xy, elev=5.0, angle=0.9):
    """Fully hand-specified drop: identical aperture angles on every link so
    received strength ordering follows distance alone."""
    ap = np.array(ap_xy, float)
    ue = np.array(ue_xy, float)
    m, k = len(ap), len(ue)
    dist = np.array([[link_distance(ap[j], ue[i], elev) for j in range(m)]
                     for i in range(k)])
    return Scenario(
        ap_positions=ap,
        ue_positions=ue,
        elev_diff=np.full((k, m), elev),
        angles=np.full((k, m), angle),
        distances=dist,
        tx_psd=np.full(k, 2e-10),
        noise_psd=10 ** (-19.8),
    )


def drop_context(sc):
    """The per-drop inputs ``hierarchical_clustering`` builds once: the
    strongest-AP association and the channel stack."""
    ue_to_ap = strongest_aps(sc, PARAMS, BAND_UPPER)
    return ue_to_ap, channel_stack(sc, PARAMS, BAND_UPPER, ue_to_ap)


def se(cluster, sc, method="zf"):
    """One standalone per-AP spectral efficiency of ``cluster`` on ``sc``."""
    return per_ap_spectral_efficiency(cluster, sc, method, *drop_context(sc))


def scorer(sc, method="zf"):
    """The unmemoised cluster score the merge rules take, over one drop."""
    ue_to_ap, stack = drop_context(sc)
    return lambda members: per_ap_spectral_efficiency(members, sc, method,
                                                      ue_to_ap, stack)


def assert_partition(clusters, num_aps):
    seen = sorted(a for c in clusters for a in c)
    assert seen == list(range(num_aps))


# ---------------------------------------------------------------------------
# k-means over AP positions
# ---------------------------------------------------------------------------

def test_kmeans_separates_rectangle_ends():
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 50.0], [1.0, 50.0]])
    clusters = kmeans_clusters(pos, 2, np.random.default_rng(0))
    assert sorted(map(sorted, clusters)) == [[0, 1], [2, 3]]


def test_kmeans_degenerate_counts():
    pos = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
    assert kmeans_clusters(pos, 1, np.random.default_rng(0)) == [(0, 1, 2)]
    singles = kmeans_clusters(pos, 3, np.random.default_rng(0))
    assert sorted(map(sorted, singles)) == [[0], [1], [2]]


def test_kmeans_partitions_random_layouts():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = int(rng.integers(4, 12))
        pos = rng.uniform(0, 200, (m, 2))
        k = int(rng.integers(2, min(m, 5)))
        clusters = kmeans_clusters(pos, k, rng)
        assert_partition(clusters, m)
        assert 1 <= len(clusters) <= k


def test_kmeans_survives_identical_positions():
    pos = np.zeros((5, 2))
    clusters = kmeans_clusters(pos, 2, np.random.default_rng(2))
    assert_partition(clusters, 5)


# ---------------------------------------------------------------------------
# exemplar-based grouping
# ---------------------------------------------------------------------------

def test_affinity_finds_two_far_groups():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 10, (4, 2))
    b = rng.uniform(0, 10, (4, 2)) + 1000.0
    clusters, converged = affinity_propagation(np.vstack([a, b]))
    assert converged
    assert sorted(map(sorted, clusters)) == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_affinity_identical_points_single_cluster():
    clusters, converged = affinity_propagation(np.zeros((5, 2)))
    assert converged
    assert clusters == [(0, 1, 2, 3, 4)]


def test_affinity_single_point():
    clusters, converged = affinity_propagation(np.array([[3.0, 4.0]]))
    assert clusters == [(0,)] and converged


def test_affinity_group_count_scales_with_separation():
    # well separated blobs (spacing >= 10x the spread) come out as one
    # cluster each, whatever the seed
    rng = np.random.default_rng(4)
    for _ in range(5):
        spread = float(rng.uniform(1.0, 5.0))
        offsets = np.array([[0.0, 0.0], [60.0 * spread, 0.0],
                            [0.0, 60.0 * spread]])
        pts = np.vstack([rng.uniform(0, spread, (3, 2)) + off
                         for off in offsets])
        clusters, _ = affinity_propagation(pts)
        assert_partition(clusters, 9)
        assert len(clusters) == 3
        groups = sorted(tuple(sorted(c)) for c in clusters)
        assert groups == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]


# ---------------------------------------------------------------------------
# association
# ---------------------------------------------------------------------------

def test_rss_matrix_matches_linkwise():
    sc = make_scenario(seed=5)
    rss = rss_matrix(sc, PARAMS, BAND_UPPER)
    assert rss.shape == (4, 8)
    for k in range(4):
        for m in range(8):
            theta = sc.angles[k, m]
            f_eval = min(max(peak_frequency(PARAMS.cutoff_frequency, theta),
                             PARAMS.cutoff_frequency * (1 + 1e-9)), BAND_UPPER)
            h2 = freespace_amplitude(f_eval, sc.distances[k, m]) ** 2
            want = link_rss(sc.tx_psd[k], PARAMS, theta, h2, BAND_UPPER)
            assert rss[k, m] == pytest.approx(want, rel=1e-12)


def test_associate_picks_strongest_ap():
    sc = manual_scenario([[0, 0], [500, 0], [1000, 0]],
                         [[990, 0], [10, 0]])
    clusters = [(0, 1), (2,)]
    ue_to_ap, ue_to_cluster = associate_ues(sc, PARAMS, clusters, BAND_UPPER)
    assert ue_to_ap.tolist() == [2, 0]
    assert ue_to_cluster.tolist() == [1, 0]


def test_associate_matches_argmax_and_relabels():
    sc = make_scenario(seed=6)
    clusters = [(0, 1, 2, 3), (4, 5), (6, 7)]
    ue_to_ap, ue_to_cluster = associate_ues(sc, PARAMS, clusters, BAND_UPPER)
    rss = rss_matrix(sc, PARAMS, BAND_UPPER)
    assert ue_to_ap.tolist() == np.argmax(rss, axis=1).tolist()
    for k in range(sc.num_ues):
        assert ue_to_ap[k] in clusters[ue_to_cluster[k]]
    # permuting the cluster list permutes labels, not the serving APs
    perm = [clusters[2], clusters[0], clusters[1]]
    ue_to_ap2, ue_to_cluster2 = associate_ues(sc, PARAMS, perm, BAND_UPPER)
    assert np.array_equal(ue_to_ap, ue_to_ap2)
    remap = {0: 1, 1: 2, 2: 0}
    assert [remap[int(z)] for z in ue_to_cluster] == ue_to_cluster2.tolist()


def test_clustering_dataclass_validation():
    with pytest.raises(ValueError):
        Clustering(((0, 1), (1, 2)), np.array([0]), np.array([0]))
    with pytest.raises(ValueError):
        Clustering(((0, 1), ()), np.array([0]), np.array([0]))
    with pytest.raises(ValueError):
        # serving AP 2 is not in cluster 0
        Clustering(((0, 1), (2,)), np.array([2]), np.array([0]))
    good = Clustering(((0, 1), (2,)), np.array([2]), np.array([1]))
    assert good.num_clusters == 2


# ---------------------------------------------------------------------------
# per-AP spectral efficiency
# ---------------------------------------------------------------------------

def test_per_ap_se_void_cluster_scores_zero():
    sc = manual_scenario([[0, 0], [1000, 0]], [[1, 0]])
    # the single UE is served by AP 0, so cluster (1,) is void
    assert se((1,), sc) == 0.0
    with pytest.raises(ValueError):
        se((), sc)


def test_per_ap_se_single_link_recompute():
    sc = manual_scenario([[0, 0]], [[7, 0]], angle=0.8)
    f_eval = min(max(peak_frequency(PARAMS.cutoff_frequency, 0.8),
                     PARAMS.cutoff_frequency * (1 + 1e-9)), BAND_UPPER)
    h = build_channel(sc, PARAMS, f_eval)
    w = precode(h, "zf")
    gamma = sinr(h, w, sc.tx_psd, sc.noise_psd)[0]
    want = float(np.log2(1.0 + gamma))
    got = se((0,), sc)
    assert got == pytest.approx(want, rel=1e-12)


def test_per_ap_se_negligible_ap_halves_score():
    near = manual_scenario([[0, 0]], [[7, 0]])
    both = manual_scenario([[0, 0], [1e12, 0]], [[7, 0]])
    alone = se((0,), near)
    padded = se((0, 1), both)
    assert padded == pytest.approx(alone / 2.0, rel=1e-9)


def test_per_ap_se_mrt_fallback_on_singular_channel():
    # two UEs at the same spot make zero forcing singular; the score must
    # come back finite through the maximum-ratio fallback
    sc = manual_scenario([[0, 0], [50, 0]], [[7, 0], [7, 0]])
    got = se((0, 1), sc)
    assert np.isfinite(got) and got > 0.0


def test_per_ap_se_equals_per_ue_oracle_bit_for_bit():
    """Stacked scores equal one build, precode and SINR per UE exactly, on
    random clusters under both precoders, K > M clusters included."""
    rng = np.random.default_rng(11)
    wide = wide_chunked = 0
    for num_aps, num_ues, seed in ((24, 10, 0), (12, 8, 1), (6, 8, 2),
                                   (64, 20, 3)):
        sc = make_scenario(num_aps=num_aps, num_ues=num_ues, seed=seed)
        ue_to_ap, stack = drop_context(sc)
        for _ in range(15):
            size = int(rng.integers(1, num_aps + 1))
            cluster = tuple(rng.choice(num_aps, size, replace=False).tolist())
            served = int(np.isin(ue_to_ap, cluster).sum())
            wide += served > size
            for method in ("zf", "mrt"):
                want = per_ap_se_per_ue(cluster, sc, PARAMS, method,
                                        BAND_UPPER)
                assert per_ap_spectral_efficiency(
                    cluster, sc, method, ue_to_ap, stack) == want
            wide_chunked += served > max(size, SCORE_CHUNK)
    assert wide >= 5 and wide_chunked >= 1


def test_per_ap_se_colocated_ues_match_the_oracle():
    """Two co-located UEs make zero forcing singular on every slice: each
    UE is scored under maximum ratio, exactly as the per-UE oracle does."""
    sc = manual_scenario([[0, 0], [50, 0], [90, 0]],
                         [[7, 0], [7, 0], [60, 0]])
    scores = {}
    for method in ("zf", "mrt"):
        scores[method] = se((0, 1, 2), sc, method)
        assert scores[method] == per_ap_se_per_ue((0, 1, 2), sc, PARAMS,
                                                  method, BAND_UPPER)
    assert scores["zf"] == scores["mrt"] > 0.0


def test_own_sinrs_fall_back_per_slice_and_raise_on_mrt_collapse():
    """``mimo.fallback_sinrs``, the rule cluster scoring uses: a slice that
    cannot zero-force takes maximum ratio, its neighbours keep zero forcing;
    a slice whose maximum-ratio column collapses raises."""
    sc = make_scenario(num_aps=8, num_ues=3, seed=6)
    good = build_channel(sc, PARAMS, 150e9).entries
    twin = good.copy()
    twin[2] = twin[0]
    h = np.stack([good, twin, good])
    got = np.diagonal(fallback_sinrs(h, "zf", sc.tx_psd, sc.noise_psd))
    good_h, twin_h = ChannelMatrix(good, 150e9), ChannelMatrix(twin, 150e9)
    zf = sinr(good_h, precode(good_h, "zf"), sc.tx_psd, sc.noise_psd)
    mrt = sinr(twin_h, precode(twin_h, "mrt"), sc.tx_psd, sc.noise_psd)
    assert got.tolist() == [zf[0], mrt[1], zf[2]]
    dead = good.copy()
    dead[1] = 0.0
    with pytest.raises(SingularChannel, match="collapsed"):
        fallback_sinrs(np.stack([good, dead]), "zf", sc.tx_psd, sc.noise_psd)


def test_per_ap_se_falls_back_slice_by_slice(monkeypatch):
    """With the ZF condition bound between the slices' condition numbers,
    only some UEs of one precoded chunk fall back to maximum ratio, and the
    score still equals the per-UE oracle."""
    sc = make_scenario(num_aps=12, num_ues=8, seed=4)
    ue_to_ap, stack = drop_context(sc)
    cluster = tuple(range(12))
    served = np.flatnonzero(np.isin(ue_to_ap, cluster))
    assert served.size > SCORE_CHUNK
    h = stack[np.ix_(served, served, cluster)]
    conds = np.linalg.cond(h @ h.conj().swapaxes(-1, -2))
    bound = float(np.median(conds[:SCORE_CHUNK]))
    first_chunk = conds[:SCORE_CHUNK] > bound
    assert first_chunk.any() and not first_chunk.all()
    monkeypatch.setattr(lwcf.mimo, "MAX_ZF_CONDITION", bound)
    want = per_ap_se_per_ue(cluster, sc, PARAMS, "zf", BAND_UPPER)
    got = per_ap_spectral_efficiency(cluster, sc, "zf", ue_to_ap, stack)
    assert got == want
    monkeypatch.setattr(lwcf.mimo, "MAX_ZF_CONDITION", 1e12)
    assert per_ap_spectral_efficiency(cluster, sc, "zf", ue_to_ap,
                                      stack) != want


# ---------------------------------------------------------------------------
# void folding and hierarchical merging
# ---------------------------------------------------------------------------

def test_merge_void_keeps_serving_partition():
    sc = manual_scenario([[0, 0], [30, 0], [1000, 0]],
                         [[5, 0], [995, 0]])
    clusters = [(0,), (1,), (2,)]        # AP 1 serves nobody
    ue_to_ap, _ = drop_context(sc)
    out = merge_void_clusters(clusters, ue_to_ap, scorer(sc))
    assert_partition(out, 3)
    assert len(out) == 2
    # the void AP joined whichever merge scored the higher per-AP SE
    score_left = se((0, 1), sc)
    score_right = se((1, 2), sc)
    expected_home = (0, 1) if score_left >= score_right else (1, 2)
    assert expected_home in out


def test_merge_void_without_serving_cluster_is_identity():
    sc = manual_scenario([[1000, 0], [2000, 0], [0, 0]], [[5, 0]])
    # the serving AP (index 2) is outside every listed cluster
    ue_to_ap, _ = drop_context(sc)
    out = merge_void_clusters([(0,), (1,)], ue_to_ap, scorer(sc))
    assert out == [(0,), (1,)]


def test_merge_void_never_grows_cluster_count():
    for seed in range(4):
        sc = make_scenario(num_aps=10, num_ues=3, seed=seed)
        rng = np.random.default_rng(seed)
        clusters = kmeans_clusters(sc.ap_positions, 5, rng)
        ue_to_ap, _ = drop_context(sc)
        out = merge_void_clusters(clusters, ue_to_ap, scorer(sc))
        assert_partition(out, 10)
        assert len(out) <= len(clusters)
        # every surviving cluster serves somebody
        rss = rss_matrix(sc, PARAMS, BAND_UPPER)
        serving = set(np.argmax(rss, axis=1).tolist())
        assert all(set(c) & serving for c in out)


def test_hierarchical_merge_single_cluster_identity():
    sc = make_scenario(seed=7)
    out = hierarchical_merge([tuple(range(8))], scorer(sc))
    assert out == [tuple(range(8))]


def test_hierarchical_merge_joins_near_stays_far():
    """Two AP groups at workable spacing merge; a group so remote that its
    links add nothing (amplitude below double precision of the near links)
    ties the improvement test exactly and stays apart."""
    far = 1e12
    sc = manual_scenario([[0, 0], [60, 0], [far, 0], [far + 60, 0]],
                         [[5, 0], [far + 5, 0]])
    clusters = [(0,), (1,), (2, 3)]
    out = hierarchical_merge(clusters, scorer(sc))
    assert sorted(map(sorted, out)) == [[0, 1], [2, 3]]


def test_hierarchical_merge_gain_rule_matches_pair_scan():
    # one merge round replayed by hand: the merged pair is the one with the
    # largest strictly positive improvement over its weighted separate score
    sc = make_scenario(num_aps=6, num_ues=4, seed=8)
    clusters = [(0, 1), (2, 3), (4, 5)]
    scores = [se(c, sc) for c in clusters]
    best_gain, best_pair = 0.0, None
    for i in range(3):
        for j in range(i + 1, 3):
            merged = tuple(sorted(clusters[i] + clusters[j]))
            score = se(merged, sc)
            joint = (scores[i] * 2 + scores[j] * 2) / 4.0
            if score - joint > best_gain:
                best_gain, best_pair = score - joint, (i, j)
    out = hierarchical_merge(clusters, scorer(sc))
    if best_pair is None:
        assert sorted(map(sorted, out)) == sorted(map(sorted, clusters))
    else:
        i, j = best_pair
        first_merge = tuple(sorted(clusters[i] + clusters[j]))
        assert any(set(first_merge) <= set(c) for c in out)


def test_hierarchical_merge_scores_each_cluster_once():
    """Only pairs with the newly merged cluster cost a score: the distinct
    tuples the rule asks for are the initial clusters plus the distinct
    merged tuples.  The memo that makes each of them one call belongs to
    the pipeline (``test_hierarchical_clustering_scores_each_tuple_once``)."""
    sc = make_scenario(num_aps=12, num_ues=6, seed=5)
    score = scorer(sc)
    asked = []

    def record(members):
        asked.append(members)
        return score(members)

    n = 12
    out = hierarchical_merge([(a,) for a in range(n)], record)
    merges = n - len(out)
    assert merges >= 3
    # round one scores every pair; after merge t only the new cluster's
    # pairs with the n - t - 1 others are new
    pairs = n * (n - 1) // 2 + sum(n - t - 1 for t in range(1, merges + 1))
    assert len(set(asked)) == n + pairs


def test_hierarchical_clustering_scores_each_tuple_once(monkeypatch):
    """One memo serves the void merge and the pairwise merge: over a drop
    the scorer runs once for each distinct AP tuple the two rules ask for,
    never twice for one tuple, and the clusters are those of the rules
    replayed with an unmemoised scorer."""
    real = lwcf.clustering.per_ap_spectral_efficiency
    for num_aps, num_ues, seed in ((12, 5, 0), (16, 8, 3), (16, 8, 1)):
        sc = make_scenario(num_aps=num_aps, num_ues=num_ues, seed=seed)
        ue_to_ap, _ = drop_context(sc)
        score = scorer(sc)
        asked = []

        def record(members):
            asked.append(members)
            return score(members)

        seeds, _ = affinity_propagation(sc.ap_positions)
        want = hierarchical_merge(merge_void_clusters(seeds, ue_to_ap, record),
                                  record)
        scored = []

        def spy(cluster, *args):
            scored.append(tuple(cluster))
            return real(cluster, *args)

        with monkeypatch.context() as patch:
            patch.setattr(lwcf.clustering, "per_ap_spectral_efficiency", spy)
            got = hierarchical_clustering(sc, PARAMS, BAND_UPPER)
        assert list(got.clusters) == want
        assert len(set(scored)) == len(scored)
        assert set(scored) == set(asked)


def test_hierarchical_clustering_equals_per_ue_scoring(monkeypatch):
    """The pipeline returns the same clusters when every score comes from
    the per-UE oracle instead of the stacked scorer."""
    drops = [make_scenario(num_aps=m, num_ues=k, seed=seed)
             for m, k, seed in ((12, 5, 0), (16, 8, 1), (24, 6, 2),
                                (10, 12, 3))]
    want = [(hierarchical_clustering(sc, PARAMS, BAND_UPPER, method).clusters)
            for sc in drops for method in ("zf", "mrt")]
    monkeypatch.setattr(
        lwcf.clustering, "per_ap_spectral_efficiency",
        lambda cluster, sc, method, ue_to_ap, stack: per_ap_se_per_ue(
            cluster, sc, PARAMS, method, BAND_UPPER, ue_to_ap))
    got = [(hierarchical_clustering(sc, PARAMS, BAND_UPPER, method).clusters)
           for sc in drops for method in ("zf", "mrt")]
    assert got == want


# ---------------------------------------------------------------------------
# end-to-end pipelines
# ---------------------------------------------------------------------------

def test_hierarchical_clustering_pipeline_invariants():
    for seed in range(3):
        sc = make_scenario(num_aps=12, num_ues=5, seed=seed)
        clustering = hierarchical_clustering(sc, PARAMS, BAND_UPPER)
        assert_partition(clustering.clusters, 12)
        assert clustering.ue_to_ap.shape == (5,)
        rss = rss_matrix(sc, PARAMS, BAND_UPPER)
        assert clustering.ue_to_ap.tolist() == np.argmax(rss, axis=1).tolist()
        # every cluster has a purpose once voids are folded in
        serving = set(clustering.ue_to_ap.tolist())
        for c in clustering.clusters:
            assert set(c) & serving


def test_zero_ue_drop_takes_the_general_path():
    """With no UEs no AP is served and every score is 0.0, so the pipeline
    returns the affinity-propagation seeds, sorted, and the association
    is empty.  The 0-UE drop of ``test_scenario`` gives one seed; the same
    drop with its APs in two far groups gives two."""
    for ap_positions in (np.zeros((3, 2)),
                         np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                   [900.0, 0.0], [901.0, 0.0], [900.0, 1.0]])):
        m = len(ap_positions)
        sc = Scenario(
            ap_positions=ap_positions,
            ue_positions=np.zeros((0, 2)),
            elev_diff=np.zeros((0, m)),
            angles=np.zeros((0, m)),
            distances=np.zeros((0, m)),
            tx_psd=np.zeros(0),
            noise_psd=1e-20,
        )
        rss = rss_matrix(sc, PARAMS, BAND_UPPER)
        assert rss.shape == (0, m) and rss.dtype == float
        seeds, _ = affinity_propagation(ap_positions)
        clustering = hierarchical_clustering(sc, PARAMS, BAND_UPPER)
        assert clustering.clusters == tuple(sorted(tuple(sorted(c))
                                                   for c in seeds))
        assert clustering.ue_to_ap.shape == (0,)
        assert clustering.ue_to_cluster.shape == (0,)
    assert len(seeds) == 2


def test_kmeans_clustering_pipeline():
    sc = make_scenario(num_aps=12, num_ues=5, seed=1)
    a = kmeans_clustering(sc, PARAMS, BAND_UPPER, 3,
                          np.random.default_rng(42))
    b = kmeans_clustering(sc, PARAMS, BAND_UPPER, 3,
                          np.random.default_rng(42))
    assert a.clusters == b.clusters
    assert_partition(a.clusters, 12)
    assert 1 <= a.num_clusters <= 3


def test_write_clustering_csv():
    sc = make_scenario(num_aps=6, num_ues=3, seed=2)
    clustering = kmeans_clustering(sc, PARAMS, BAND_UPPER, 2,
                                   np.random.default_rng(0))
    buf = io.StringIO()
    write_clustering_csv(clustering, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "kind,index,serving_ap,cluster_index"
    assert len(lines) == 1 + 6 + 3
