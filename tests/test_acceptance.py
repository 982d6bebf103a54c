"""Acceptance gate: nine release criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every plan an optimiser
emits anywhere in this module goes through the same structural invariant
check (disjointness, band membership, spectrum budget, edge coherence at
grid resolution); criterion 9 reports on that bookkeeping at the end, which
is why these tests share one module and run in order.

Budgeted criteria assert their own wall-clock limits.  The Monte-Carlo
criteria (5-7) take a few minutes each; the whole gate runs in roughly
ten to fifteen minutes on a laptop-class machine.
"""

import time
from dataclasses import replace

import numpy as np

from lwcf.antenna import AntennaParams, gain, peak_frequency
from lwcf.cegmm import (
    CeHyperparams,
    Gmm,
    QosConfig,
    allocate,
    bandwidth_search,
    bic,
    check_coherence,
    em_fit,
    validate_plan,
)
from lwcf.cegmm import _edge_table, _revalidate, _truncate
from lwcf.cluster_alloc import allocate_clustered, cluster_ue_sets
from lwcf.clustering import hierarchical_clustering, kmeans_clustering
from lwcf.harness import equal_bandwidth_baseline
from lwcf.mimo import (
    build_channel,
    precode,
    rate_density,
    received_strength_psd,
)
from lwcf.scenario import ScenarioConfig, generate_scenario
from oracles import fallback_cluster_reward

PARAMS_1 = AntennaParams(1.0, 0.15, 130.0, 100e9)
BAND_1 = (100e9, 200e9)
PARAMS_2 = AntennaParams(1.0, 0.15, 130.0, 200e9)
BAND_2 = (200e9, 400e9)
BUDGET = 10e9

QOS = QosConfig(min_rx_psd=10 ** (-20.4), coherence_gap_db=0.5)
CLUSTER_QOS = QosConfig(min_rx_psd=10 ** (-20.4), coherence_gap_db=0.5,
                        min_cluster_avg_rate=50e6)

# sweep-scale optimiser settings (criteria 5-7): light but sufficient for
# the trend margins, keeping the ten-minute budget of criterion 5
SWEEP_HYPER = CeHyperparams(num_samples=15, num_elites=5, max_iterations=4,
                            grid_step=100e6, num_subchannels=4)
# oracle-comparison settings (criteria 4 and 8): the toy deployment is tiny,
# so a much deeper search fits the two-minute budget easily
SEARCH_HYPER = CeHyperparams(num_samples=60, num_elites=12, max_iterations=15,
                             grid_step=100e6, num_subchannels=2)
# criterion 6 compares nested proposal families, so it needs enough elites
# per iteration for the mixture fits to stop splitting spuriously; it has
# no runtime budget of its own
ORDERING_HYPER = CeHyperparams(num_samples=20, num_elites=8, max_iterations=8,
                               grid_step=100e6, num_subchannels=4)

TRIALS = 20

# criterion 9 bookkeeping: every optimiser-emitted plan in this module is
# pushed through the structural checks and counted here
CHECKED = {"plans": 0}


def make_scenario(num_aps, num_ues, seed):
    return generate_scenario(ScenarioConfig(
        area_side=200.0, num_aps=num_aps, num_ues=num_ues,
        elev_diff_range=(5.0, 10.0), total_power=2.0, total_bandwidth=BUDGET,
        noise_psd=10 ** (-19.8), seed=seed))


def trial_rng(trial):
    return np.random.default_rng(np.random.SeedSequence((0, trial)))


def check_plan(subchannels, scenario, params, band, edge_checks=True):
    """Structural invariants every emitted plan must satisfy: positive
    disjoint in-band subchannels within the spectrum budget, and (for
    searched plans) valid edge PSDs at grid resolution."""
    validate_plan(list(subchannels), band, BUDGET, params.cutoff_frequency)
    if edge_checks:
        assert check_coherence(subchannels, scenario, params, QOS)
    CHECKED["plans"] += 1


def mean_allocate_rate(num_aps, num_ues, method, hyper=SWEEP_HYPER):
    rates = []
    for trial in range(TRIALS):
        scenario = make_scenario(num_aps, num_ues, trial)
        plan = allocate(scenario, PARAMS_1, BAND_1, method, hyper, QOS,
                        trial_rng(trial), total_bandwidth=BUDGET)
        check_plan(plan.subchannels, scenario, PARAMS_1, BAND_1)
        rates.append(plan.achieved_rate)
    return float(np.mean(rates))


# ---------------------------------------------------------------------------
# exhaustive grid oracle for the toy deployment (criteria 4 and 8)
# ---------------------------------------------------------------------------

def grid_subchannels(scenario, params=PARAMS_1, band=BAND_1):
    """Candidate subchannels on a 50-point center grid: each center that
    meets the access threshold gets its searched bandwidth."""
    span = band[1] - band[0]
    centers = band[0] + (np.arange(50) + 0.5) * span / 50
    usable = []
    for c in centers:
        c = float(c)
        if np.any(received_strength_psd(scenario, params, c) < QOS.min_rx_psd):
            continue
        w = bandwidth_search(c, scenario, params, band, QOS,
                             SEARCH_HYPER.grid_step, max_bandwidth=BUDGET)
        if w > 0.0:
            usable.append((c, w))
    return usable


def candidate_plans(scenario, params=PARAMS_1, band=BAND_1):
    """Every resolved single and pair of grid subchannels: the two passes
    of ``resolve_overlaps`` on each, all re-validated in one lock-step
    ``_revalidate`` with the drop's one edge check."""
    usable = grid_subchannels(scenario, params, band)
    lists = []
    for i in range(len(usable)):
        lists.append([usable[i]])
        lists.extend([usable[i], usable[j]]
                     for j in range(i + 1, len(usable)))
    records = [_truncate(cands, scenario, params, BUDGET, None)
               for cands in lists]
    return _revalidate(records, _edge_table(scenario, params, band, QOS),
                       SEARCH_HYPER.grid_step)


def best_grid_rate(scenario):
    density = {}
    best = 0.0
    for plan in candidate_plans(scenario):
        total = 0.0
        for c, w in plan:
            if c not in density:
                density[c] = rate_density(scenario, PARAMS_1, c, "zf")
            total += w * density[c]
        best = max(best, total)
    return best


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_zero_forcing_nulling():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        scenario = make_scenario(16, 4, seed)
        channel = build_channel(scenario, PARAMS_1, 150e9)
        precoder = precode(channel, "zf")
        cross = np.abs(channel @ precoder)
        diag = np.diag(cross).copy()
        np.fill_diagonal(cross, 0.0)
        worst = max(worst, float(np.max(cross / diag[:, None])))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 5.0
    print(f"criterion 1 (zero-forcing nulling): PASS - "
          f"max cross-term ratio {worst:.2e} over 100 scenarios "
          f"({elapsed:.2f} s)")


def test_criterion_2_beam_peak_law():
    t0 = time.perf_counter()
    worst = 0.0
    for params in (PARAMS_1, PARAMS_2):
        cutoff = params.cutoff_frequency
        for degrees in (30.0, 45.0, 60.0, 90.0):
            theta = np.radians(degrees)
            predicted = peak_frequency(cutoff, theta)
            freqs = np.arange(cutoff + 1e6, 2.1 * cutoff, 1e6)
            found = float(freqs[np.argmax(gain(params, freqs, theta))])
            rel = abs(found - predicted) / predicted
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst < 0.02
    assert elapsed < 10.0
    print(f"criterion 2 (beam peak law): PASS - worst grid argmax deviation "
          f"{worst:.3%} across 4 angles x 2 bands ({elapsed:.2f} s)")


def test_criterion_3_mixture_fitting():
    span2 = (BAND_1[1] - BAND_1[0]) ** 2
    var_floor = 1e-6 * span2

    # (a) EM log-likelihood never decreases on 50 synthetic elite sets
    rng = np.random.default_rng(0)
    monotone_sets = 0
    for _ in range(50):
        n = int(rng.integers(15, 60))
        x = np.concatenate([
            rng.normal(rng.uniform(110e9, 150e9), rng.uniform(1e9, 5e9), n),
            rng.normal(rng.uniform(150e9, 195e9), rng.uniform(1e9, 5e9),
                       int(rng.integers(10, 40))),
        ])
        k = int(rng.integers(1, 5))
        qs = (np.arange(k) + 0.5) / k
        init = Gmm(np.full(k, 1.0 / k), np.quantile(x, qs),
                   np.full(k, max(float(np.var(x)), var_floor)))
        history = []
        em_fit(x, k, init, var_floor=var_floor, history=history)
        diffs = np.diff(history)
        slack = 1e-9 * np.maximum(1.0, np.abs(np.asarray(history[:-1])))
        assert np.all(diffs >= -slack)
        monotone_sets += 1
    assert monotone_sets == 50

    # (b) two-mode mean recovery within 0.5 GHz in at least 90% of 20 seeds
    recovered = 0
    for seed in range(20):
        srng = np.random.default_rng(seed)
        x = np.concatenate([srng.normal(120e9, 2e9, 200),
                            srng.normal(160e9, 2e9, 200)])
        init = Gmm(np.array([0.5, 0.5]), np.quantile(x, [0.25, 0.75]),
                   np.full(2, max(float(np.var(x)), var_floor)))
        fit = em_fit(x, 2, init, var_floor=var_floor)
        means = np.sort(fit.means)
        if abs(means[0] - 120e9) < 0.5e9 and abs(means[1] - 160e9) < 0.5e9:
            recovered += 1
    assert recovered >= 18

    # (c) BIC picks two components on well-separated data in >= 90% of seeds
    picked = 0
    for seed in range(20):
        srng = np.random.default_rng(100 + seed)
        x = np.concatenate([srng.normal(125e9, 2e9, 100),
                            srng.normal(170e9, 2e9, 100)])
        scores = []
        for k in range(1, 6):
            qs = (np.arange(k) + 0.5) / k
            init = Gmm(np.full(k, 1.0 / k), np.quantile(x, qs),
                       np.full(k, max(float(np.var(x)), var_floor)))
            fit = em_fit(x, k, init, var_floor=var_floor)
            scores.append((bic(fit, x), fit.num_components))
        if min(scores)[1] == 2:
            picked += 1
    assert picked >= 18
    print(f"criterion 3 (mixture fitting): PASS - 50/50 monotone fits, "
          f"{recovered}/20 mean recoveries, {picked}/20 BIC selections")


def test_criterion_4_allocator_vs_grid_oracle():
    t0 = time.perf_counter()
    wins = 0
    fracs = []
    for seed in range(20):
        scenario = make_scenario(4, 2, seed)
        oracle = best_grid_rate(scenario)
        assert oracle > 0.0
        plan = allocate(scenario, PARAMS_1, BAND_1, "zf", SEARCH_HYPER, QOS,
                        trial_rng(seed), total_bandwidth=BUDGET)
        check_plan(plan.subchannels, scenario, PARAMS_1, BAND_1)
        frac = plan.achieved_rate / oracle
        fracs.append(frac)
        wins += frac >= 0.95
    elapsed = time.perf_counter() - t0
    assert wins >= 18
    assert elapsed < 120.0
    print(f"criterion 4 (allocator vs grid oracle): PASS - "
          f"{wins}/20 seeds at >= 95% of the exhaustive optimum "
          f"(median {np.median(fracs):.3f}, {elapsed:.1f} s)")


def test_criterion_5_rate_trends():
    t0 = time.perf_counter()
    by_m = {m: mean_allocate_rate(m, 10, "zf") for m in (16, 32, 64)}
    by_k = {k: mean_allocate_rate(64, k, "zf") for k in (4, 8, 12)}
    mrt = mean_allocate_rate(64, 10, "mrt")
    zf_ref = by_m[64]
    elapsed = time.perf_counter() - t0
    assert by_m[16] < by_m[32] < by_m[64]
    assert by_k[4] < by_k[8] < by_k[12]
    assert zf_ref > mrt
    assert elapsed < 600.0
    fmt = lambda d: ", ".join(f"{k}: {v / 1e9:.1f}" for k, v in d.items())
    print(f"criterion 5 (rate trends): PASS - Gb/s by M {{{fmt(by_m)}}}, "
          f"by K {{{fmt(by_k)}}}, ZF {zf_ref / 1e9:.1f} vs MRT "
          f"{mrt / 1e9:.1f} ({elapsed:.0f} s)")


def test_criterion_6_allocator_ordering():
    adaptive = mean_allocate_rate(32, 8, "zf", hyper=ORDERING_HYPER)
    fixed = mean_allocate_rate(32, 8, "zf",
                               hyper=replace(ORDERING_HYPER,
                                             max_components=1))
    equal_rates = []
    for trial in range(TRIALS):
        scenario = make_scenario(32, 8, trial)
        plan = equal_bandwidth_baseline(scenario, PARAMS_1, 4, BAND_1,
                                        BUDGET, "zf")
        # static tiling ignores edge coherence by design; budget/band
        # structure still must hold
        check_plan(plan.subchannels, scenario, PARAMS_1, BAND_1,
                   edge_checks=False)
        equal_rates.append(plan.achieved_rate)
    equal = float(np.mean(equal_rates))
    assert adaptive >= fixed >= equal
    assert adaptive > equal
    print(f"criterion 6 (allocator ordering): PASS - adaptive "
          f"{adaptive / 1e9:.1f} >= fixed {fixed / 1e9:.1f} >= equal "
          f"{equal / 1e9:.1f} Gb/s, adaptive strictly above equal")


def test_criterion_7_clustering_ordering():
    summary = []
    for params, band, tag in ((PARAMS_1, BAND_1, "band 1"),
                              (PARAMS_2, BAND_2, "band 2")):
        means = {}
        for scheme in ("hierarchical", "kmeans2", "kmeans4"):
            rates = []
            for trial in range(TRIALS):
                scenario = make_scenario(32, 10, trial)
                rng = trial_rng(trial)
                if scheme == "hierarchical":
                    clustering = hierarchical_clustering(scenario, params,
                                                         band[1])
                else:
                    clustering = kmeans_clustering(scenario, params, band[1],
                                                   int(scheme[-1]), rng)
                plan = allocate_clustered(scenario, params, band, "zf",
                                          SWEEP_HYPER, CLUSTER_QOS,
                                          clustering, rng,
                                          total_bandwidth=BUDGET)
                merged = [cw for group in plan.subchannels for cw in group]
                check_plan(merged, scenario, params, band)
                rates.append(plan.total_rate)
            means[scheme] = float(np.mean(rates))
        assert means["hierarchical"] > means["kmeans2"]
        assert means["hierarchical"] > means["kmeans4"]
        summary.append(f"{tag}: hier {means['hierarchical'] / 1e9:.1f} > "
                       f"k2 {means['kmeans2'] / 1e9:.1f}, "
                       f"k4 {means['kmeans4'] / 1e9:.1f}")
    print(f"criterion 7 (clustering ordering): PASS - {'; '.join(summary)} "
          f"(Gb/s)")


def test_criterion_8_cluster_feasibility_and_reduction():
    floor = 5e9

    # (a) whenever some grid assignment satisfies the per-user rate floor,
    # the clustered allocator must come back with its feasibility flag set
    oracle_feasible_seeds = 0
    confirmed = 0
    for seed in range(10):
        scenario = make_scenario(4, 2, seed)
        clustering = kmeans_clustering(scenario, PARAMS_1, BAND_1[1], 2,
                                       np.random.default_rng(seed))
        ue_sets = cluster_ue_sets(clustering)
        counts = [len(s) for s in ue_sets]
        reward_cache = {}

        def reward(z, c, w, scenario=scenario, clustering=clustering,
                   ue_sets=ue_sets, cache=reward_cache):
            key = (z, c, w)
            if key not in cache:
                cache[key] = fallback_cluster_reward(
                    clustering.clusters[z], ue_sets[z], c, w, scenario,
                    PARAMS_1, "zf")
            return cache[key]

        oracle_feasible = False
        for plan in candidate_plans(scenario):
            n = len(plan)
            if n == 0:
                continue
            for pick in range(2 ** n):
                totals = [0.0, 0.0]
                for i, (c, w) in enumerate(plan):
                    z = (pick >> i) & 1
                    totals[z] += reward(z, c, w)
                if all(t >= floor * cnt for t, cnt in zip(totals, counts)
                       if cnt > 0):
                    oracle_feasible = True
                    break
            if oracle_feasible:
                break
        qos = QosConfig(min_rx_psd=QOS.min_rx_psd, coherence_gap_db=0.5,
                        min_cluster_avg_rate=floor)
        plan = allocate_clustered(scenario, PARAMS_1, BAND_1, "zf",
                                  SEARCH_HYPER, qos, clustering,
                                  trial_rng(seed), total_bandwidth=BUDGET)
        merged = [cw for group in plan.subchannels for cw in group]
        check_plan(merged, scenario, PARAMS_1, BAND_1)
        if oracle_feasible:
            oracle_feasible_seeds += 1
            assert plan.feasible
            confirmed += 1
    assert oracle_feasible_seeds > 0     # the cross-check must have bite

    # (b) one cluster and a zero floor reduce to the cluster-free allocator
    worst_rel = 0.0
    for seed in range(5):
        scenario = make_scenario(4, 2, seed)
        clustering = kmeans_clustering(scenario, PARAMS_1, BAND_1[1], 1,
                                       np.random.default_rng(seed))
        zero_floor = QosConfig(min_rx_psd=QOS.min_rx_psd,
                               coherence_gap_db=0.5,
                               min_cluster_avg_rate=0.0)
        plain = allocate(scenario, PARAMS_1, BAND_1, "zf", SEARCH_HYPER, QOS,
                         trial_rng(seed), total_bandwidth=BUDGET)
        clustered = allocate_clustered(scenario, PARAMS_1, BAND_1, "zf",
                                       SEARCH_HYPER, zero_floor, clustering,
                                       trial_rng(seed),
                                       total_bandwidth=BUDGET)
        check_plan(plain.subchannels, scenario, PARAMS_1, BAND_1)
        rel = (abs(clustered.total_rate - plain.achieved_rate)
               / plain.achieved_rate)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-9
    print(f"criterion 8 (clustered feasibility and reduction): PASS - "
          f"flag confirmed on {confirmed}/{oracle_feasible_seeds} "
          f"oracle-feasible seeds, reduction max rel diff {worst_rel:.1e}")


def test_criterion_9_plan_invariants():
    # the structural checks ran inline on every plan the previous criteria
    # emitted; this records that the bookkeeping actually covered them
    assert CHECKED["plans"] >= 200
    print(f"criterion 9 (plan invariants): PASS - {CHECKED['plans']} emitted "
          f"plans passed disjointness/band/budget and edge checks inline")
