"""Plan invariants over random drops.

Seeded loops over random drops stand in for a property-testing library:
every plan that ``allocate`` and ``allocate_clustered`` return must pass
``validate_plan`` (widths, band membership, disjointness, spectrum budget)
and ``check_coherence`` (access threshold and coherence gap at every edge).
The drops cover the default sizes, K = M under zero forcing, and links at
broadside, whose beams peak at the cutoff, which is the band's lower edge.
Lock-step candidates with centers on both band edges and on the link peaks
go through the same checks.
"""

from dataclasses import replace

import numpy as np
import pytest

from lwcf.antenna import peak_frequency
from lwcf.cegmm import (FREQ_TOL, _edge_table, allocate, check_coherence,
                        evaluate_candidates, validate_plan)
from lwcf.cluster_alloc import ClusterPlan, allocate_clustered
from lwcf.clustering import kmeans_clustering
from lwcf.config import load_config
from lwcf.scenario import generate_scenario
from oracles import cell_free_check

APP = load_config()
PARAMS, BAND, QOS = APP.params, APP.band, APP.qos
BUDGET = APP.scenario.total_bandwidth
FAST = replace(APP.hyper, num_samples=20, num_elites=5, max_iterations=2)


def drop(seed, **kw):
    return generate_scenario(replace(APP.scenario, seed=seed, **kw))


def assert_valid(subchannels, scenario):
    validate_plan(subchannels, BAND, BUDGET, PARAMS.cutoff_frequency)
    assert check_coherence(subchannels, scenario, PARAMS, QOS)


def assert_plans_valid(scenario, method, seed, hyper=FAST):
    """Both allocators' plans on this drop are valid, with two k-means
    clusters for the cluster-aware one."""
    def rng():
        return np.random.default_rng(np.random.SeedSequence((seed, 0)))

    plan = allocate(scenario, PARAMS, BAND, method, hyper, QOS, rng(),
                    total_bandwidth=BUDGET)
    assert plan.subchannels and plan.achieved_rate > 0.0
    assert_valid(plan.subchannels, scenario)
    clustering = kmeans_clustering(scenario, PARAMS, BAND[1], 2,
                                   np.random.default_rng(seed))
    clustered = allocate_clustered(scenario, PARAMS, BAND, method, hyper,
                                   QOS, clustering, rng(),
                                   total_bandwidth=BUDGET)
    assert isinstance(clustered, ClusterPlan)
    assert_valid([s for subs in clustered.subchannels for s in subs],
                 scenario)


@pytest.mark.parametrize("seed", [101, 102, 103, 104])
def test_default_size_plans_hold_the_invariants(seed):
    sc = drop(seed)
    assert (sc.num_aps, sc.num_ues) == (32, 10) and APP.precoder == "zf"
    assert_plans_valid(sc, APP.precoder, seed)


@pytest.mark.parametrize("seed", range(201, 207))
def test_square_zero_forcing_plans_hold_the_invariants(seed):
    """K = M is the largest drop zero forcing can serve."""
    sc = drop(seed, num_aps=6, num_ues=6)
    assert_plans_valid(sc, "zf", seed)


@pytest.mark.parametrize("seed", range(301, 305))
def test_broadside_links_and_band_edge_centers_hold_the_invariants(seed):
    """Every other AP sees every UE at broadside, so those beams peak on
    the cutoff; the searches there and candidates on both band edges, on
    the cutoff itself and on the link peaks still give valid plans."""
    base = drop(seed, num_aps=8, num_ues=4)
    angles = base.angles.copy()
    angles[:, ::2] = np.pi / 2.0
    sc = replace(base, angles=angles)
    for method in ("zf", "mrt"):
        assert_plans_valid(sc, method, seed)
    peaks = np.clip(peak_frequency(PARAMS.cutoff_frequency, sc.angles),
                    BAND[0], BAND[1]).ravel()
    edges = [BAND[0], np.nextafter(BAND[0], np.inf),
             PARAMS.cutoff_frequency + 2.0 * FREQ_TOL, BAND[0] + 1e6,
             BAND[1] - 1e6, BAND[1]]
    rng = np.random.default_rng(seed)
    batch = [np.sort(rng.choice(np.concatenate([edges, peaks]), 4))
             for _ in range(40)] + [np.array(edges)]
    for check in (_edge_table(sc, PARAMS, BAND, QOS),
                  cell_free_check(sc, PARAMS, BAND, QOS)):
        evaluated = evaluate_candidates(batch, check, APP.hyper.grid_step,
                                        BUDGET)
        assert sum(bool(subs) for subs, _ in evaluated) >= 20
        for subs, _ in evaluated:
            assert_valid(subs, sc)
