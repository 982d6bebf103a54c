"""Exclusive spectrum assignment across clusters and its allocator wrapper."""

import io
import itertools

import numpy as np
import pytest

from lwcf.antenna import AntennaParams
from lwcf.cegmm import (
    CeHyperparams,
    InfeasibleBand,
    QosConfig,
    allocate,
    check_coherence,
    validate_plan,
)
from lwcf.cluster_alloc import (
    allocate_clustered,
    cluster_ue_sets,
    greedy_assign,
    write_cluster_plan_csv,
)
from lwcf.clustering import (Clustering, hierarchical_clustering,
                             kmeans_clustering)
from lwcf.mimo import (SingularChannel, build_channel,
                       cluster_subchannel_reward, rate_density)
from lwcf.scenario import (Scenario, ScenarioConfig, generate_scenario,
                           subscenario)
from oracles import fallback_cluster_reward, link_distance

PARAMS = AntennaParams(1.0, 0.15, 130.0, 100e9)
BAND = (100e9, 200e9)
QOS = QosConfig(min_rx_psd=10 ** (-20.4), coherence_gap_db=0.5,
                min_cluster_avg_rate=0.0)


def make_scenario(num_aps=6, num_ues=3, seed=0):
    return generate_scenario(ScenarioConfig(
        area_side=200.0, num_aps=num_aps, num_ues=num_ues,
        elev_diff_range=(5.0, 10.0), total_power=2.0, total_bandwidth=10e9,
        noise_psd=10 ** (-19.8), seed=seed))


def manual_scenario(ap_xy, ue_xy, elev=5.0, angle=0.9):
    ap = np.array(ap_xy, float)
    ue = np.array(ue_xy, float)
    m, k = len(ap), len(ue)
    dist = np.array([[link_distance(ap[j], ue[i], elev) for j in range(m)]
                     for i in range(k)])
    return Scenario(ap, ue, np.full((k, m), elev), np.full((k, m), angle),
                    dist, np.full(k, 2e-10), 10 ** (-19.8))


def two_cluster_toy():
    """Two single-AP clusters, each serving its own UE; cluster 0 has the
    shorter links and therefore values every subchannel more."""
    sc = manual_scenario([[0, 0], [80, 0]], [[5, 0], [95, 0]])
    clustering = Clustering(((0,), (1,)), np.array([0, 1]), np.array([0, 1]))
    return sc, clustering


def test_cluster_ue_sets():
    clustering = Clustering(((0, 1), (2,)), np.array([0, 2, 1]),
                            np.array([0, 1, 0]))
    assert cluster_ue_sets(clustering) == [[0, 2], [1]]


def test_reward_zero_cases():
    sc = make_scenario()
    assert cluster_subchannel_reward((0, 1), (0,), 150e9, 0.0, sc, PARAMS,
                                     "zf") == 0.0
    assert cluster_subchannel_reward((0, 1), (), 150e9, 1e9, sc, PARAMS,
                                     "zf") == 0.0


def test_reward_whole_network_matches_rate_density():
    sc = make_scenario(seed=1)
    c, w = 150e9, 2e9
    want = w * rate_density(sc, PARAMS, c, "zf")
    got = cluster_subchannel_reward(range(6), range(3), c, w, sc, PARAMS, "zf")
    assert got == pytest.approx(want, rel=1e-12)


def test_reward_scales_linearly_with_width():
    sc = make_scenario(seed=2)
    r1 = cluster_subchannel_reward((0, 1, 2), (0, 1), 140e9, 1e9, sc, PARAMS,
                                   "zf")
    r2 = cluster_subchannel_reward((0, 1, 2), (0, 1), 140e9, 2e9, sc, PARAMS,
                                   "zf")
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)
    assert r1 > 0.0


def test_reward_propagates_singular_channel():
    sc = make_scenario(num_aps=4, num_ues=3, seed=3)
    with pytest.raises(SingularChannel):
        cluster_subchannel_reward((0,), (0, 1), 150e9, 1e9, sc, PARAMS, "zf")


def test_greedy_zero_floor_is_pure_argmax():
    sc, clustering = two_cluster_toy()
    cands = [(140e9, 2e9), (160e9, 1e9)]
    plan = greedy_assign(cands, clustering, 0.0, sc, PARAMS, "zf")
    rewards = np.array([[cluster_subchannel_reward(
        clustering.clusters[z], [z], c, w, sc, PARAMS, "zf")
        for z in range(2)] for c, w in cands])
    for i, (c, w) in enumerate(cands):
        z = int(np.argmax(rewards[i]))
        assert (c, w) in plan.subchannels[z]
    assert plan.feasible            # zero floor is always met
    assert plan.total_rate == pytest.approx(
        sum(rewards[i, int(np.argmax(rewards[i]))] for i in range(2)),
        rel=1e-12)


def test_greedy_rate_floor_redirects_candidate():
    """Cluster 0 values both candidates more, but once its floor is met the
    second candidate must go to the still-deficient cluster 1.  Checked
    against the full enumeration of the four possible assignments."""
    sc, clustering = two_cluster_toy()
    cands = [(140e9, 2e9), (160e9, 1e9)]
    rewards = np.array([[cluster_subchannel_reward(
        clustering.clusters[z], [z], c, w, sc, PARAMS, "zf")
        for z in range(2)] for c, w in cands])
    assert np.all(rewards[:, 0] > rewards[:, 1])     # toy premise
    floor = 0.9 * min(rewards[0, 0], rewards[1, 1])
    plan = greedy_assign(cands, clustering, floor, sc, PARAMS, "zf")
    assert plan.subchannels[0] == (cands[0],)
    assert plan.subchannels[1] == (cands[1],)
    assert plan.feasible

    # enumeration: the greedy outcome is a feasible assignment and the pure
    # argmax outcome (everything to cluster 0) is not
    feasible_rates = []
    for pick in range(4):
        totals = [0.0, 0.0]
        for i in range(2):
            totals[(pick >> i) & 1] += rewards[i, (pick >> i) & 1]
        if all(t >= floor for t in totals):
            feasible_rates.append(sum(totals))
    assert feasible_rates
    assert plan.total_rate == pytest.approx(max(feasible_rates), rel=1e-12)
    naive = greedy_assign(cands, clustering, 0.0, sc, PARAMS, "zf")
    assert not all(a >= floor for a in naive.avg_rates)


def test_greedy_unreachable_floor_reports_infeasible():
    sc, clustering = two_cluster_toy()
    plan = greedy_assign([(150e9, 1e9)], clustering, 1e30, sc, PARAMS, "zf")
    assert not plan.feasible
    assert plan.total_rate > 0.0


def test_greedy_userless_cluster_is_exempt():
    sc = manual_scenario([[0, 0], [1000, 0]], [[5, 0]])
    clustering = Clustering(((0,), (1,)), np.array([0]), np.array([0]))
    plan = greedy_assign([(150e9, 2e9)], clustering, 1e3, sc, PARAMS, "zf")
    assert plan.avg_rates[1] == 0.0
    assert plan.feasible            # only cluster 0 serves anyone


def test_greedy_no_candidates():
    sc, clustering = two_cluster_toy()
    plan = greedy_assign([], clustering, 1e6, sc, PARAMS, "zf")
    assert plan.total_rate == 0.0
    assert not plan.feasible        # serving clusters sit at zero


def reference_rates(plan, clustering, sc, method):
    """Each assigned subchannel's reward by ``fallback_cluster_reward``."""
    ue_sets = cluster_ue_sets(clustering)
    return tuple(tuple(fallback_cluster_reward(clustering.clusters[z],
                                               ue_sets[z], c, w, sc, PARAMS,
                                               method) for c, w in subs)
                 for z, subs in enumerate(plan.subchannels))


def seeded_candidates(seed, num=10):
    """Random centers and widths, plus one zero-width candidate."""
    rng = np.random.default_rng(seed)
    cands = [(float(c), float(w)) for c, w in
             zip(rng.uniform(101e9, 199e9, num), rng.uniform(0.1e9, 2e9, num))]
    return cands + [(150e9, 0.0)]


@pytest.mark.parametrize("method", ["zf", "mrt"])
@pytest.mark.parametrize("mode", ["kmeans", "hierarchical"])
def test_greedy_rewards_equal_the_reference_bit_for_bit(mode, method):
    """The stacked, sliced rewards of ``greedy_assign`` equal the one-matrix
    sub-scenario reference with its ZF -> MRT retry, bit for bit, on drops
    with clusters that serve more UEs than they have APs, and with clusters
    of 8 APs or more, where a slice that is not C-contiguous would sum its
    maximum-ratio norms in another order."""
    overloaded = 0
    for (num_aps, num_ues), seed in itertools.product(((6, 8), (20, 10)),
                                                      range(3)):
        sc = make_scenario(num_aps=num_aps, num_ues=num_ues, seed=seed)
        if mode == "kmeans":
            clustering = kmeans_clustering(sc, PARAMS, BAND[1], 3,
                                           np.random.default_rng(seed))
        else:
            clustering = hierarchical_clustering(sc, PARAMS, BAND[1], method)
        overloaded += sum(len(u) > len(a) for u, a in zip(
            cluster_ue_sets(clustering), clustering.clusters))
        cands = seeded_candidates(seed)
        for floor in (0.0, 1e9):
            plan = greedy_assign(cands, clustering, floor, sc, PARAMS,
                                 method)
            assert sorted(cw for subs in plan.subchannels
                          for cw in subs) == sorted(cands)
            assert plan.subchannel_rates == reference_rates(
                plan, clustering, sc, method)
    assert overloaded > 0


def test_greedy_rewards_fall_back_slice_by_slice(monkeypatch):
    """With the ZF condition bound between the (center, cluster) slices'
    condition numbers only some slices fall back, and the rewards still
    equal the reference bit for bit."""
    import lwcf.mimo
    sc = make_scenario(num_aps=12, num_ues=6, seed=9)
    clustering = kmeans_clustering(sc, PARAMS, BAND[1], 2,
                                   np.random.default_rng(9))
    cands = seeded_candidates(9)
    conds = []
    for aps, ues in zip(clustering.clusters, cluster_ue_sets(clustering)):
        if 2 <= len(ues) <= len(aps):
            sub = subscenario(sc, sorted(aps), ues)
            for c, _ in cands:
                h = build_channel(sub, PARAMS, c).entries
                conds.append(np.linalg.cond(h @ h.conj().T))
    bound = float(np.median(conds))
    assert min(conds) < bound < max(conds)
    unbound = greedy_assign(cands, clustering, 0.0, sc, PARAMS, "zf")
    monkeypatch.setattr(lwcf.mimo, "MAX_ZF_CONDITION", bound)
    plan = greedy_assign(cands, clustering, 0.0, sc, PARAMS, "zf")
    assert plan.subchannel_rates != unbound.subchannel_rates
    assert plan.subchannel_rates == reference_rates(plan, clustering, sc,
                                                    "zf")


@pytest.mark.parametrize("method", ["zf", "mrt"])
def test_greedy_raises_on_a_collapsed_mrt_column(monkeypatch, method):
    """A UE whose channel is zero at one center collapses its maximum-ratio
    column: the reference and ``greedy_assign`` both raise."""
    import lwcf.cluster_alloc
    import lwcf.mimo
    sc = make_scenario(num_aps=6, num_ues=4, seed=9)
    clustering = kmeans_clustering(sc, PARAMS, BAND[1], 2,
                                   np.random.default_rng(9))
    cands = seeded_candidates(9, num=4)
    dead_center, dead_ue = cands[2][0], sc.ue_positions[1]
    real = lwcf.mimo.build_channels

    def dead_link(scenario, params, frequencies):
        out = real(scenario, params, frequencies)
        ue = np.all(scenario.ue_positions == dead_ue, axis=1)
        out[np.ix_(np.asarray(frequencies) == dead_center, ue)] = 0.0
        return out

    monkeypatch.setattr(lwcf.mimo, "build_channels", dead_link)
    monkeypatch.setattr(lwcf.cluster_alloc, "build_channels", dead_link)
    z = int(clustering.ue_to_cluster[1])
    with pytest.raises(SingularChannel):
        fallback_cluster_reward(clustering.clusters[z],
                                cluster_ue_sets(clustering)[z], *cands[2], sc,
                                PARAMS, method)
    with pytest.raises(SingularChannel, match="collapsed"):
        greedy_assign(cands, clustering, 0.0, sc, PARAMS, method)


def test_allocate_clustered_single_cluster_reduces_to_plain():
    sc = make_scenario(seed=4)
    hyper = CeHyperparams(num_samples=15, num_elites=5, max_iterations=3,
                          grid_step=100e6, num_subchannels=3)
    clustering = kmeans_clustering(sc, PARAMS, BAND[1], 1,
                                   np.random.default_rng(0))
    assert clustering.num_clusters == 1
    rng_a = np.random.default_rng(np.random.SeedSequence((5, 0)))
    rng_b = np.random.default_rng(np.random.SeedSequence((5, 0)))
    plain = allocate(sc, PARAMS, BAND, "zf", hyper, QOS, rng_a,
                     total_bandwidth=10e9)
    clustered = allocate_clustered(sc, PARAMS, BAND, "zf", hyper, QOS,
                                   clustering, rng_b, total_bandwidth=10e9)
    assert clustered.total_rate == pytest.approx(plain.achieved_rate,
                                                 rel=1e-9)
    flat = clustered.subchannels[0]
    assert len(flat) == len(plain.subchannels)
    for (c1, w1), (c2, w2) in zip(flat, plain.subchannels):
        assert c1 == pytest.approx(c2, rel=1e-12)
        assert w1 == pytest.approx(w2, rel=1e-12)


def test_allocate_clustered_plans_are_valid():
    sc = make_scenario(num_aps=8, num_ues=4, seed=6)
    hyper = CeHyperparams(num_samples=15, num_elites=5, max_iterations=3,
                          grid_step=100e6, num_subchannels=3)
    clustering = kmeans_clustering(sc, PARAMS, BAND[1], 2,
                                   np.random.default_rng(1))
    rng = np.random.default_rng(np.random.SeedSequence((6, 0)))
    plan = allocate_clustered(sc, PARAMS, BAND, "zf", hyper, QOS,
                              clustering, rng, total_bandwidth=10e9)
    merged = [cw for per_cluster in plan.subchannels for cw in per_cluster]
    validate_plan(merged, BAND, 10e9, PARAMS.cutoff_frequency)
    assert check_coherence(merged, sc, PARAMS, QOS)
    assert plan.total_rate > 0.0
    # the default floor is modest; the plan should admit everyone
    easy = QosConfig(min_rx_psd=10 ** (-20.4), coherence_gap_db=0.5,
                     min_cluster_avg_rate=1.0)
    rng = np.random.default_rng(np.random.SeedSequence((6, 0)))
    plan2 = allocate_clustered(sc, PARAMS, BAND, "zf", hyper, easy,
                               clustering, rng, total_bandwidth=10e9)
    assert plan2.feasible
    for z, ues in enumerate(cluster_ue_sets(clustering)):
        if ues:
            assert plan2.avg_rates[z] >= 1.0


@pytest.mark.parametrize("seed", [21, 22])
def test_allocate_clustered_equals_the_exact_path(monkeypatch, seed):
    """With an infinite envelope ratio neither the table nor the envelope
    tier can decide, so every edge decision takes the exact path, and the
    cluster plan is the same, field for field, as with the table."""
    import lwcf.cegmm

    sc = make_scenario(num_aps=8, num_ues=4, seed=seed)
    hyper = CeHyperparams(num_samples=10, num_elites=3, max_iterations=2,
                          grid_step=10e6, num_subchannels=3)
    clustering = kmeans_clustering(sc, PARAMS, BAND[1], 2,
                                   np.random.default_rng(seed))

    def plan():
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        return allocate_clustered(sc, PARAMS, BAND, "zf", hyper, QOS,
                                  clustering, rng, total_bandwidth=10e9)

    with_table = plan()
    assert with_table.total_rate > 0.0
    monkeypatch.setattr(lwcf.cegmm, "envelope_ratio", lambda params: np.inf)
    exact = plan()
    assert exact == with_table


def test_allocate_clustered_deterministic():
    sc = make_scenario(seed=7)
    hyper = CeHyperparams(num_samples=10, num_elites=4, max_iterations=2,
                          grid_step=100e6, num_subchannels=2)
    clustering = kmeans_clustering(sc, PARAMS, BAND[1], 2,
                                   np.random.default_rng(2))
    plans = []
    for _ in range(2):
        rng = np.random.default_rng(np.random.SeedSequence((8, 0)))
        plans.append(allocate_clustered(sc, PARAMS, BAND, "zf", hyper, QOS,
                                        clustering, rng))
    assert plans[0].subchannels == plans[1].subchannels
    assert plans[0].total_rate == plans[1].total_rate


def test_allocate_clustered_infeasible_band():
    sc = make_scenario(seed=7)
    hyper = CeHyperparams(num_samples=8, num_elites=3, max_iterations=2,
                          grid_step=100e6, num_subchannels=2)
    clustering = kmeans_clustering(sc, PARAMS, BAND[1], 2,
                                   np.random.default_rng(3))
    strict = QosConfig(min_rx_psd=1.0, coherence_gap_db=0.5)
    rng = np.random.default_rng(np.random.SeedSequence((9, 0)))
    with pytest.raises(InfeasibleBand):
        allocate_clustered(sc, PARAMS, BAND, "zf", hyper, strict, clustering,
                           rng)


def test_write_cluster_plan_csv():
    sc, clustering = two_cluster_toy()
    plan = greedy_assign([(140e9, 2e9), (160e9, 1e9)], clustering, 0.0, sc,
                         PARAMS, "zf")
    buf = io.StringIO()
    write_cluster_plan_csv(plan, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ("cluster_index,subchannel_index,center_hz,width_hz,"
                        "subchannel_rate_bps,cluster_avg_rate_per_ue_bps,"
                        "feasible")
    assert len(lines) == 3
