"""AP grouping: k-means, exemplar message passing, association, merging."""

import io
import re

import numpy as np
import pytest

import lwcf.clustering
import lwcf.mimo
from lwcf.antenna import AntennaParams, peak_frequency
from lwcf.clustering import (
    SCORE_CHUNK,
    Clustering,
    GramTable,
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
from lwcf.mimo import (MAX_ZF_CONDITION, ZF_CERTIFICATE_SLACK, SingularChannel,
                       build_channel, fallback_sinrs, freespace_amplitude,
                       precode, sinr, zf_certified, zf_closed_form)
from lwcf.scenario import Scenario, ScenarioConfig, generate_scenario
from oracles import (LiveTable, hierarchical_merge_replay, link_distance,
                     link_rss, merge_void_clusters_replay, per_ap_se_per_ue,
                     per_ap_se_precoded)

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
    """The unmemoised one-tuple cluster score of the replayed merge rules,
    over one drop."""
    ue_to_ap, stack = drop_context(sc)
    return lambda members: per_ap_spectral_efficiency(members, sc, method,
                                                      ue_to_ap, stack)


def union(a, b):
    """The AP tuple a merge rules' candidate ``(a, b)`` names (b None: a
    alone)."""
    return a if b is None else tuple(sorted(a + b))


def batched(score):
    """The round scorer a ``LiveTable`` wraps, from a one-tuple ``score``."""
    return lambda pairs: np.array([score(union(a, b)) for a, b in pairs],
                                  dtype=float)


def round_scorer(one):
    """A stand-in for ``clustering.cluster_scores`` that rates each
    candidate's union with ``one(members, table)`` on its own."""
    return lambda table, pairs: np.array([one(union(a, b), table)
                                          for a, b in pairs])


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


def test_associate_rejects_a_serving_ap_outside_every_cluster():
    """A UE whose serving AP lies in no cluster has no cluster label, so
    ``associate_ues`` names those APs instead of returning one."""
    sc = make_scenario(num_aps=6, num_ues=4, seed=0)
    ue_to_ap = strongest_aps(sc, PARAMS, BAND_UPPER)
    missing = sorted(set(ue_to_ap.tolist()) - {0, 1})
    assert missing
    with pytest.raises(ValueError, match=re.escape(f"serving APs {missing}")):
        associate_ues(sc, PARAMS, [(0, 1)], BAND_UPPER)


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


def random_clusters(rng, drops=((24, 10, 0), (12, 8, 1), (6, 8, 2),
                                 (64, 20, 3)), per_drop=15):
    """(drop, ue_to_ap, stack, cluster) for random clusters of test drops,
    K > M clusters included; one ``rng`` draw order for every caller."""
    for num_aps, num_ues, seed in drops:
        sc = make_scenario(num_aps=num_aps, num_ues=num_ues, seed=seed)
        ue_to_ap, stack = drop_context(sc)
        for _ in range(per_drop):
            size = int(rng.integers(1, num_aps + 1))
            cluster = tuple(rng.choice(num_aps, size, replace=False).tolist())
            yield sc, ue_to_ap, stack, cluster


def test_per_ap_se_equals_per_ue_oracle_bit_for_bit():
    """Stacked scores equal, exactly, one channel build per UE with its
    lone Gram inverse (or precoder and SINR), on random clusters under
    both precoders, K > M clusters included."""
    wide = wide_chunked = 0
    for sc, ue_to_ap, stack, cluster in random_clusters(
            np.random.default_rng(11)):
        served = int(np.isin(ue_to_ap, cluster).sum())
        wide += served > len(cluster)
        for method in ("zf", "mrt"):
            want = per_ap_se_per_ue(cluster, sc, PARAMS, method, BAND_UPPER)
            assert per_ap_spectral_efficiency(
                cluster, sc, method, ue_to_ap, stack) == want
        wide_chunked += served > max(len(cluster), SCORE_CHUNK)
    assert wide >= 5 and wide_chunked >= 1


def test_closed_form_scores_track_the_precoded_scores():
    """The closed-form zero-forcing SINR p_k / (noise [Gram^-1]_kk) drops
    the interference that precoding leaves by rounding: on the random
    clusters of the bit-for-bit test every score is within 1e-13 relative
    of the precoded scorer, and maximum ratio is untouched."""
    drift = []
    for sc, ue_to_ap, stack, cluster in random_clusters(
            np.random.default_rng(11)):
        for method in ("zf", "mrt"):
            got = per_ap_spectral_efficiency(cluster, sc, method, ue_to_ap,
                                             stack)
            want = per_ap_se_precoded(cluster, sc, method, ue_to_ap, stack)
            if method == "mrt" or want == 0.0:
                assert got == want
            else:
                drift.append(abs(got - want) / want)
    assert max(drift) <= 1e-13
    # the closed form is live: rounding separates some scores
    assert max(drift) > 0.0


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


def test_per_ap_se_untrusted_inverse_falls_back_to_mrt():
    """Two co-located UEs give a rank-1 Gram that rounding leaves
    invertible: the inverse returns, and its trace bound alone would
    certify it, but a non-positive diagonal entry marks it untrusted.
    Every slice then fails the exact condition test too and is scored
    under maximum ratio, finite and equal to the per-UE oracle."""
    sc = manual_scenario([[0, 0], [50, 0], [90, 0]],
                         [[60, 10], [60, 10], [60, 0]])
    ue_to_ap, stack = drop_context(sc)
    cluster = (0, 1, 2)
    h = stack[np.ix_(range(3), range(3), cluster)]
    gram = h @ h.conj().swapaxes(-1, -2)
    diagonal = np.linalg.inv(gram).diagonal(axis1=-2, axis2=-1).real
    trace = gram.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1)
    assert np.all(trace * diagonal.sum(axis=-1)
                  <= MAX_ZF_CONDITION * ZF_CERTIFICATE_SLACK)
    assert not (diagonal > 0.0).all(axis=-1).any()
    assert not zf_certified(gram, diagonal).any()
    got = se(cluster, sc)
    assert np.isfinite(got) and got > 0.0
    assert got == se(cluster, sc, "mrt") == per_ap_se_per_ue(
        cluster, sc, PARAMS, "zf", BAND_UPPER)


def test_inverse_diagonals_isolate_an_exactly_singular_slice():
    """One exactly singular Gram makes the stacked inverse of
    ``mimo.zf_closed_form`` raise: that slice alone gets a NaN diagonal,
    hence NaN SINRs, which the certificate rejects, and the others keep the
    bits of their lone inverses' closed form; no warning leaks out."""
    sc = make_scenario(num_aps=12, num_ues=6, seed=3)
    _, stack = drop_context(sc)
    h = stack[:, :, :].copy()
    h[2, 1] = 0.0                        # a zero row and column in gram[2]
    gram = h @ h.conj().swapaxes(-1, -2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(gram)
    with np.errstate(all="raise"):
        sinrs, certified = zf_closed_form(gram, sc.tx_psd, sc.noise_psd)
    assert np.isnan(sinrs[2]).all()
    for n in (0, 1, 3, 4, 5):
        lone = np.linalg.inv(gram[n].copy()).diagonal().real
        assert sinrs[n].tolist() == (sc.tx_psd
                                     / (sc.noise_psd * lone)).tolist()
    assert certified.tolist() == [True, True, False, True, True, True]


def test_per_ap_se_more_ues_than_aps_takes_mrt_for_the_stack(monkeypatch):
    """A cluster serving more UEs than it has APs cannot zero-force: no
    Gram is inverted and the whole stack is scored under maximum ratio."""
    sc = make_scenario(num_aps=6, num_ues=8, seed=2)
    ue_to_ap, stack = drop_context(sc)
    cluster = (int(ue_to_ap[0]),)
    served = int(np.isin(ue_to_ap, cluster).sum())
    assert served > len(cluster) and served > 1

    def refuse(gram, *args):
        raise AssertionError("a K > M cluster inverted a Gram")

    monkeypatch.setattr(lwcf.clustering, "zf_closed_form", refuse)
    monkeypatch.setattr(lwcf.mimo, "zf_closed_form", refuse)
    got = se(cluster, sc)
    assert got == se(cluster, sc, "mrt") > 0.0
    assert got == per_ap_se_per_ue(cluster, sc, PARAMS, "zf", BAND_UPPER)


def test_own_sinrs_fall_back_per_slice_and_flag_mrt_collapse():
    """``mimo.fallback_sinrs``, the rule cluster scoring uses: a slice that
    cannot zero-force takes maximum ratio, its neighbours keep the lone
    zero-forcing closed form; a slice whose maximum-ratio column collapses
    is flagged, and the other slices keep their bits."""
    sc = make_scenario(num_aps=8, num_ues=3, seed=6)
    good = build_channel(sc, PARAMS, 150e9)
    twin = good.copy()
    twin[2] = twin[0]
    h = np.stack([good, twin, good])
    gammas, collapsed = fallback_sinrs(h, "zf", sc.tx_psd, sc.noise_psd)
    zf, certified = zf_closed_form((good @ good.conj().T)[None], sc.tx_psd,
                                   sc.noise_psd)
    assert certified.tolist() == [True]
    zf = zf[0]
    mrt = sinr(twin, precode(twin, "mrt"), sc.tx_psd, sc.noise_psd)
    assert np.diagonal(gammas).tolist() == [zf[0], mrt[1], zf[2]]
    assert not collapsed.any()
    dead = good.copy()
    dead[1] = 0.0
    for method in ("zf", "mrt"):
        gammas, collapsed = fallback_sinrs(np.stack([good, dead, good]),
                                           method, sc.tx_psd, sc.noise_psd)
        assert collapsed.tolist() == [False, True, False]
        lone = zf if method == "zf" else sinr(good, precode(good, "mrt"),
                                              sc.tx_psd, sc.noise_psd)
        assert gammas[0].tolist() == gammas[2].tolist() == lone.tolist()


@pytest.mark.parametrize("method", ["zf", "mrt"])
def test_per_ap_se_raises_on_a_collapsed_column(method):
    """A served UE with a zero channel row collapses its maximum-ratio
    column; the cluster score cannot rank on meaningless SINRs and raises."""
    sc = make_scenario(num_aps=8, num_ues=4, seed=6)
    ue_to_ap, stack = drop_context(sc)
    cluster = tuple(range(8))
    assert se(cluster, sc, method) > 0.0
    stack = stack.copy()
    stack[:, 1, :] = 0.0
    with pytest.raises(SingularChannel, match="collapsed"):
        per_ap_spectral_efficiency(cluster, sc, method, ue_to_ap, stack)


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


def test_per_ap_se_mixes_closed_form_and_precoded_slices(monkeypatch):
    """With the certificate's share of the threshold between the slices'
    trace bounds, some UEs of one score take the closed form and the others
    are precoded under zero forcing; the score still equals the per-UE
    oracle, and only the uncertified slices reach ``fallback_sinrs``."""
    sc = make_scenario(num_aps=12, num_ues=8, seed=4)
    ue_to_ap, stack = drop_context(sc)
    cluster = tuple(range(12))
    served = np.flatnonzero(np.isin(ue_to_ap, cluster))
    h = stack[np.ix_(served, served, cluster)]
    gram = h @ h.conj().swapaxes(-1, -2)
    diagonal = np.linalg.inv(gram).diagonal(axis1=-2, axis2=-1).real
    bounds = gram.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1) * (
        diagonal.sum(axis=-1))
    limit = float(np.max(np.linalg.cond(gram)))      # every slice passes
    slack = float(np.median(bounds)) / limit
    certified = bounds <= limit * slack
    assert certified.any() and not certified.all()
    monkeypatch.setattr(lwcf.mimo, "MAX_ZF_CONDITION", limit)
    monkeypatch.setattr(lwcf.mimo, "ZF_CERTIFICATE_SLACK", slack)
    precoded = []

    def spy(h, *args):
        precoded.append(len(h))
        return fallback_sinrs(h, *args)

    monkeypatch.setattr(lwcf.clustering, "fallback_sinrs", spy)
    got = per_ap_spectral_efficiency(cluster, sc, "zf", ue_to_ap, stack)
    assert sum(precoded) == (~certified).sum()
    assert got == per_ap_se_per_ue(cluster, sc, PARAMS, "zf", BAND_UPPER)


# ---------------------------------------------------------------------------
# void folding and hierarchical merging
# ---------------------------------------------------------------------------

def test_merge_void_keeps_serving_partition():
    sc = manual_scenario([[0, 0], [30, 0], [1000, 0]],
                         [[5, 0], [995, 0]])
    clusters = [(0,), (1,), (2,)]        # AP 1 serves nobody
    ue_to_ap, _ = drop_context(sc)
    out = merge_void_clusters(clusters, ue_to_ap,
                              LiveTable(batched(scorer(sc)), clusters))
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
    out = merge_void_clusters([(0,), (1,)], ue_to_ap,
                              LiveTable(batched(scorer(sc)), [(0,), (1,)]))
    assert out == [(0,), (1,)]


def test_merge_void_never_grows_cluster_count():
    for seed in range(4):
        sc = make_scenario(num_aps=10, num_ues=3, seed=seed)
        rng = np.random.default_rng(seed)
        clusters = kmeans_clusters(sc.ap_positions, 5, rng)
        ue_to_ap, _ = drop_context(sc)
        out = merge_void_clusters(clusters, ue_to_ap,
                                  LiveTable(batched(scorer(sc)), clusters))
        assert_partition(out, 10)
        assert len(out) <= len(clusters)
        # every surviving cluster serves somebody
        rss = rss_matrix(sc, PARAMS, BAND_UPPER)
        serving = set(np.argmax(rss, axis=1).tolist())
        assert all(set(c) & serving for c in out)


def test_hierarchical_merge_single_cluster_identity():
    sc = make_scenario(seed=7)
    out = hierarchical_merge([tuple(range(8))],
                             LiveTable(batched(scorer(sc)), [range(8)]))
    assert out == [tuple(range(8))]


def test_hierarchical_merge_joins_near_stays_far():
    """Two AP groups at workable spacing merge; a group so remote that its
    links add nothing (amplitude below double precision of the near links)
    ties the improvement test exactly and stays apart."""
    far = 1e12
    sc = manual_scenario([[0, 0], [60, 0], [far, 0], [far + 60, 0]],
                         [[5, 0], [far + 5, 0]])
    clusters = [(0,), (1,), (2, 3)]
    out = hierarchical_merge(clusters,
                             LiveTable(batched(scorer(sc)), clusters))
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
    out = hierarchical_merge(clusters,
                             LiveTable(batched(scorer(sc)), clusters))
    if best_pair is None:
        assert sorted(map(sorted, out)) == sorted(map(sorted, clusters))
    else:
        i, j = best_pair
        first_merge = tuple(sorted(clusters[i] + clusters[j]))
        assert any(set(first_merge) <= set(c) for c in out)


def test_hierarchical_merge_scores_each_cluster_once():
    """Only pairs with the newly merged cluster cost a score: the tuples the
    rule asks for are the initial clusters plus the distinct merged tuples,
    each once, since the rule keeps a matrix of its live pairs' scores."""
    sc = make_scenario(num_aps=12, num_ues=6, seed=5)
    score = batched(scorer(sc))
    asked = []
    calls = []

    def record(pairs):
        asked.extend(union(a, b) for a, b in pairs)
        calls.append(len(pairs))
        return score(pairs)

    n = 12
    singles = [(a,) for a in range(n)]
    out = hierarchical_merge(singles, LiveTable(record, singles))
    merges = n - len(out)
    assert merges >= 3
    # round one scores every pair; after merge t only the new cluster's
    # pairs with the n - t - 1 others are new
    pairs = n * (n - 1) // 2 + sum(n - t - 1 for t in range(1, merges + 1))
    assert len(set(asked)) == n + pairs
    assert len(asked) == n + pairs
    # one call per round: the first, then one per merge that leaves a pair
    assert len(calls) == 1 + min(merges, n - 2)


def test_hierarchical_clustering_scores_each_tuple_once(monkeypatch):
    """One ``GramTable`` serves the void merge and the pairwise merge: over
    a drop ``cluster_scores`` rates each distinct AP tuple the replayed
    one-tuple rules ask for once, never twice, and the clusters are those
    of the replayed rules with an unmemoised scorer.  The first drop folds
    void seeds."""
    real = lwcf.clustering.cluster_scores
    voids = 0
    for num_aps, num_ues, seed in ((12, 5, 0), (16, 8, 3), (16, 8, 1),
                                   (24, 3, 0)):
        sc = make_scenario(num_aps=num_aps, num_ues=num_ues, seed=seed)
        ue_to_ap, _ = drop_context(sc)
        score = scorer(sc)
        asked = []

        def record(members):
            asked.append(members)
            return score(members)

        seeds, _ = affinity_propagation(sc.ap_positions)
        voids += sum(not np.isin(ue_to_ap, c).any() for c in seeds)
        want = hierarchical_merge_replay(
            merge_void_clusters_replay(seeds, ue_to_ap, record), record)
        scored = []

        def spy(table, pairs):
            scored.extend(union(a, b) for a, b in pairs)
            return real(table, pairs)

        with monkeypatch.context() as patch:
            patch.setattr(lwcf.clustering, "cluster_scores", spy)
            got = hierarchical_clustering(sc, PARAMS, BAND_UPPER)
        assert list(got.clusters) == want
        assert len(set(scored)) == len(scored)
        assert set(scored) == set(asked)
    assert voids >= 1


def test_hierarchical_clustering_equals_per_ue_scoring(monkeypatch):
    """The pipeline returns the same clusters when every score comes from
    the per-UE oracle instead of the round scorer."""
    drops = [make_scenario(num_aps=m, num_ues=k, seed=seed)
             for m, k, seed in ((12, 5, 0), (16, 8, 1), (24, 6, 2),
                                (10, 12, 3))]
    want = [(hierarchical_clustering(sc, PARAMS, BAND_UPPER, method).clusters)
            for sc in drops for method in ("zf", "mrt")]
    monkeypatch.setattr(
        lwcf.clustering, "cluster_scores",
        round_scorer(lambda members, t: per_ap_se_per_ue(
            members, t.scenario, PARAMS, t.method, BAND_UPPER, t.ue_to_ap)))
    got = [(hierarchical_clustering(sc, PARAMS, BAND_UPPER, method).clusters)
           for sc in drops for method in ("zf", "mrt")]
    assert got == want


def benchmark_sized_drops():
    """64, 96 and 128 APs with 20 UEs, seeds 0 and 1, and the far-group
    exact-tie layout."""
    drops = [make_scenario(num_aps=m, num_ues=20, seed=seed)
             for m in (64, 96, 128) for seed in (0, 1)]
    far = 1e12
    drops.append(manual_scenario([[0, 0], [60, 0], [far, 0], [far + 60, 0]],
                                 [[5, 0], [far + 5, 0]]))
    return drops


def test_hierarchical_clustering_closed_form_keeps_the_precoded_clusters(
        monkeypatch):
    """Closed-form and precoded scores differ by rounding only, and no
    merge decision turns on it: benchmark-sized drops (64, 96 and 128 APs,
    20 UEs) and the far-group exact-tie layout give the same clusters
    under either scorer."""
    drops = benchmark_sized_drops()
    want = [hierarchical_clustering(sc, PARAMS, BAND_UPPER).clusters
            for sc in drops]
    assert want[-1] == ((0, 1), (2, 3))
    monkeypatch.setattr(
        lwcf.clustering, "cluster_scores",
        round_scorer(lambda members, t: per_ap_se_precoded(
            members, t.scenario, t.method, t.ue_to_ap, t.stack)))
    got = [hierarchical_clustering(sc, PARAMS, BAND_UPPER).clusters
           for sc in drops]
    assert got == want


def test_lock_step_pipeline_keeps_the_replayed_clusters_of_benchmark_drops():
    """The benchmark-sized drops keep, under the lock-step pipeline
    (additive Gram scores, one call per round, the pair-score matrix), the
    clusters of the one-tuple rules replayed with the precoded scorer."""
    for sc in benchmark_sized_drops():
        ue_to_ap, stack = drop_context(sc)
        memo = {}

        def precoded(members):
            if members not in memo:
                memo[members] = per_ap_se_precoded(members, sc, "zf",
                                                   ue_to_ap, stack)
            return memo[members]

        seeds, _ = affinity_propagation(sc.ap_positions)
        want = hierarchical_merge_replay(
            merge_void_clusters_replay(seeds, ue_to_ap, precoded), precoded)
        assert hierarchical_clustering(sc, PARAMS, BAND_UPPER).clusters == (
            tuple(want))


@pytest.mark.parametrize("method", ["zf", "mrt"])
def test_lock_step_merge_equals_the_replayed_rules(method):
    """On random drops, from the affinity-propagation seeds and from single
    APs, the lock-step rules return the replayed one-tuple rules' clusters
    on the same scores, and the pipeline on its additive scores does too."""
    rng = np.random.default_rng(21)
    merges = 0
    for _ in range(6):
        num_aps = int(rng.integers(6, 20))
        num_ues = int(rng.integers(1, 9))
        sc = make_scenario(num_aps=num_aps, num_ues=num_ues,
                           seed=int(rng.integers(1000)))
        ue_to_ap, _ = drop_context(sc)
        score = scorer(sc, method)
        seeds, _ = affinity_propagation(sc.ap_positions)
        for start in (seeds, [(a,) for a in range(num_aps)]):
            want = hierarchical_merge_replay(
                merge_void_clusters_replay(start, ue_to_ap, score), score)
            table = LiveTable(batched(score), start)
            got = hierarchical_merge(
                merge_void_clusters(start, ue_to_ap, table), table)
            assert got == want
            merges += len(start) - len(want)
        got = hierarchical_clustering(sc, PARAMS, BAND_UPPER, method)
        assert list(got.clusters) == hierarchical_merge_replay(
            merge_void_clusters_replay(seeds, ue_to_ap, score), score)
    assert merges >= 10


def hand_table(scores, clusters):
    """A ``LiveTable`` over ``clusters`` that scores from a dict of union
    scores; unlisted unions 0.0."""
    return LiveTable(batched(lambda members: scores.get(members, 0.0)),
                     clusters)


def test_hierarchical_merge_ties_go_to_the_first_pair_in_scan_order():
    """Round one ties (0, 1) and (1, 2) at gain 3: (0, 1) scans first.
    Round two, over [(2,), (3,), (0, 1)], ties (2, 3) and (0, 1, 3) at
    gain 1: (2, 3) scans first, though (0, 1, 3) sorts first."""
    scores = {(0,): 3.0, (1,): 3.0, (2,): 3.0, (3,): 3.0,
              (0, 1): 6.0, (1, 2): 6.0, (2, 3): 4.0, (0, 1, 3): 6.0}
    singles = [(0,), (1,), (2,), (3,)]
    out = hierarchical_merge(singles, hand_table(scores, singles))
    assert out == [(0, 1), (2, 3)]
    assert out == hierarchical_merge_replay(
        singles, lambda members: scores.get(members, 0.0))


def test_hierarchical_merge_never_merges_on_a_nan_score():
    """A NaN merged score, or a NaN score of one part, makes a NaN gain,
    which never wins, though ``np.argmax`` would pick it."""
    nan = float("nan")
    scores = {(0,): 1.0, (1,): 1.0, (2,): 1.0, (0, 1): nan, (0, 2): 1.5}
    three, two = [(0,), (1,), (2,)], [(0,), (1,)]
    assert hierarchical_merge(three, hand_table(scores, three)) == [(0, 2),
                                                                    (1,)]
    assert hierarchical_merge(two, hand_table(scores, two)) == two
    scores = {(0,): nan, (1,): 1.0, (0, 1): 5.0}
    assert hierarchical_merge(two, hand_table(scores, two)) == two
    # NaN gains first in scan order do not stop a later positive gain
    scores = {(0,): nan, (1,): 1.0, (2,): 1.0, (0, 1): 5.0, (1, 2): 1.5}
    assert hierarchical_merge(three, hand_table(scores, three)) == [(0,),
                                                                    (1, 2)]


def test_gram_table_merge_adds_the_parts_grams(monkeypatch):
    """``merge`` keeps the sum of its parts' Grams in a part's slot, equal
    to one product over the union up to rounding, and the OR of their
    served masks; the table never holds more slots than the clusters it was
    built from.  ``scores`` changes nothing but its memo: a union scored as
    a pair costs no new score once merged, and a pair that names a
    merged-away part raises KeyError."""
    sc = make_scenario(num_aps=12, num_ues=6, seed=5)
    ue_to_ap, stack = drop_context(sc)
    clusters = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9, 10, 11)]
    table = GramTable(sc, "zf", ue_to_ap, stack, clusters)
    singles = [table.grams[table.slot[c]].copy() for c in clusters]
    masks = [table.served[table.slot[c]].copy() for c in clusters]
    rated = []
    real = lwcf.clustering.cluster_scores

    def spy(table, pairs):
        rated.extend(union(a, b) for a, b in pairs)
        return real(table, pairs)

    monkeypatch.setattr(lwcf.clustering, "cluster_scores", spy)
    a, b, c, d, e = clusters
    state = (table.grams.copy(), table.served.copy(), dict(table.slot))
    first = table.scores([(a, b), (c, d)])
    assert np.array_equal(table.grams, state[0])
    assert np.array_equal(table.served, state[1]) and table.slot == state[2]
    ab = table.merge(a, b)
    assert ab == union(a, b) and set(table.slot) == {ab, c, d, e}
    slot = table.slot[ab]
    assert np.array_equal(table.grams[slot], singles[0] + singles[1])
    assert table.served[slot].tolist() == (masks[0] | masks[1]).tolist()
    assert table.scores([(ab, None)]).tolist() == first[:1].tolist()
    assert rated == [ab, union(c, d)]
    with pytest.raises(KeyError):
        table.scores([(a, e)])
    abcd = table.merge(ab, table.merge(c, d))
    assert set(table.slot) == {abcd, e}
    assert set(table.slot.values()) <= set(range(len(clusters)))
    assert len(table.grams) == len(clusters)
    slot = table.slot[abcd]
    assert table.served[slot].tolist() == np.isin(ue_to_ap, abcd).tolist()
    assert np.array_equal(table.grams[slot], ((singles[0] + singles[1])
                                              + (singles[2] + singles[3])))
    h = stack[:, :, list(abcd)]
    upper = np.triu_indices(6)
    product = (h @ h.conj().swapaxes(-1, -2))[:, upper[0], upper[1]]
    assert np.allclose(table.grams[slot], product, rtol=1e-13, atol=0.0)


def test_additive_pair_scores_track_the_precoded_scores():
    """A pair's Gram is the sum of its parts' Grams, not one product over
    the union: on the pairs of random clusters of test drops every
    additive score is within 1e-13 relative of the precoded scorer of the
    union (2.19e-15 the largest drift measured), and maximum ratio is
    equal.  The clusters alone, rated in the same call, equal
    ``per_ap_spectral_efficiency``."""
    drift = []
    rng = np.random.default_rng(31)
    for num_aps, num_ues, seed in ((24, 10, 0), (12, 8, 1), (64, 20, 3)):
        sc = make_scenario(num_aps=num_aps, num_ues=num_ues, seed=seed)
        ue_to_ap, stack = drop_context(sc)
        labels = rng.integers(0, 6, num_aps)
        clusters = [tuple(np.flatnonzero(labels == z).tolist())
                    for z in range(6) if (labels == z).any()]
        pairs = [(a, b) for i, a in enumerate(clusters)
                 for b in clusters[i + 1:]]
        for method in ("zf", "mrt"):
            table = GramTable(sc, method, ue_to_ap, stack, clusters)
            got = table.scores([(c, None) for c in clusters] + pairs)
            for c, score in zip(clusters, got):
                assert score == per_ap_spectral_efficiency(
                    c, sc, method, ue_to_ap, stack)
            for (a, b), score in zip(pairs, got[len(clusters):]):
                want = per_ap_se_precoded(union(a, b), sc, method, ue_to_ap,
                                          stack)
                if method == "mrt" or want == 0.0:
                    assert score == want
                else:
                    drift.append(abs(score - want) / want)
    assert max(drift) <= 1e-13
    assert max(drift) > 0.0


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
