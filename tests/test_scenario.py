"""Drop generation: determinism, geometry ranges, sub-selection."""

import numpy as np
import pytest

from lwcf.scenario import (
    Scenario,
    ScenarioConfig,
    generate_scenario,
    subscenario,
)
from oracles import link_distance


def make_config(**kw):
    base = dict(
        area_side=200.0,
        num_aps=8,
        num_ues=5,
        elev_diff_range=(5.0, 10.0),
        total_power=2.0,
        total_bandwidth=10e9,
        noise_psd=10 ** (-19.8),
        seed=0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(area_side=0.0)
    with pytest.raises(ValueError):
        make_config(num_aps=0)
    with pytest.raises(ValueError):
        make_config(num_ues=0)
    with pytest.raises(ValueError):
        make_config(elev_diff_range=(0.0, 10.0))
    with pytest.raises(ValueError):
        make_config(elev_diff_range=(10.0, 5.0))
    with pytest.raises(ValueError):
        make_config(noise_psd=0.0)


def test_shapes_and_ranges():
    sc = generate_scenario(make_config())
    assert sc.ap_positions.shape == (8, 2)
    assert sc.ue_positions.shape == (5, 2)
    assert sc.angles.shape == (5, 8)
    assert sc.distances.shape == (5, 8)
    assert sc.elev_diff.shape == (5, 8)
    assert sc.tx_psd.shape == (5,)
    assert sc.num_aps == 8 and sc.num_ues == 5
    assert np.all(sc.ap_positions >= 0.0) and np.all(sc.ap_positions <= 200.0)
    assert np.all(sc.ue_positions >= 0.0) and np.all(sc.ue_positions <= 200.0)
    assert np.all(sc.angles > 0.0) and np.all(sc.angles <= np.pi / 2)
    assert np.all(sc.elev_diff >= 5.0) and np.all(sc.elev_diff <= 10.0)
    # height offset lower-bounds every 3-D distance
    assert np.all(sc.distances >= sc.elev_diff - 1e-12)


def test_tx_psd_is_power_over_bandwidth():
    sc = generate_scenario(make_config(total_power=4.0, total_bandwidth=8e9))
    assert np.allclose(sc.tx_psd, 4.0 / 8e9)


def test_determinism_and_seed_sensitivity():
    a = generate_scenario(make_config(seed=3))
    b = generate_scenario(make_config(seed=3))
    c = generate_scenario(make_config(seed=4))
    assert np.array_equal(a.ap_positions, b.ap_positions)
    assert np.array_equal(a.angles, b.angles)
    assert np.array_equal(a.distances, b.distances)
    assert not np.array_equal(a.ap_positions, c.ap_positions)


def test_substream_prefix_stability():
    """Growing the deployment must not disturb the draws already made:
    the first APs/UEs of a larger drop coincide with the smaller drop."""
    small = generate_scenario(make_config(num_aps=4, num_ues=3))
    large = generate_scenario(make_config(num_aps=9, num_ues=6))
    assert np.array_equal(small.ap_positions, large.ap_positions[:4])
    assert np.array_equal(small.ue_positions, large.ue_positions[:3])
    assert np.array_equal(small.angles, large.angles[:3, :4])


def test_link_distance_triangle():
    assert link_distance((3.0, 0.0), (0.0, 0.0), 4.0) == pytest.approx(5.0)
    assert link_distance((1.0, 2.0), (1.0, 2.0), 7.0) == pytest.approx(7.0)


def test_distances_match_linkwise_recompute():
    sc = generate_scenario(make_config(seed=11))
    for k in range(sc.num_ues):
        for m in range(sc.num_aps):
            d = link_distance(sc.ap_positions[m], sc.ue_positions[k],
                              sc.elev_diff[k, m])
            assert sc.distances[k, m] == pytest.approx(d, rel=1e-12)


def test_arrays_read_only():
    sc = generate_scenario(make_config())
    with pytest.raises(ValueError):
        sc.angles[0, 0] = 1.0
    with pytest.raises(ValueError):
        sc.tx_psd[0] = 0.0


def test_subscenario_selects_consistently():
    sc = generate_scenario(make_config(seed=5))
    ap_idx = [1, 4, 6]
    ue_idx = [0, 3]
    sub = subscenario(sc, ap_idx, ue_idx)
    assert sub.num_aps == 3 and sub.num_ues == 2
    assert np.array_equal(sub.ap_positions, sc.ap_positions[ap_idx])
    assert np.array_equal(sub.ue_positions, sc.ue_positions[ue_idx])
    assert np.array_equal(sub.angles, sc.angles[np.ix_(ue_idx, ap_idx)])
    assert np.array_equal(sub.distances, sc.distances[np.ix_(ue_idx, ap_idx)])
    assert np.array_equal(sub.tx_psd, sc.tx_psd[ue_idx])
    assert sub.noise_psd == sc.noise_psd


def test_subscenario_of_everything_is_identity():
    sc = generate_scenario(make_config())
    sub = subscenario(sc, range(sc.num_aps), range(sc.num_ues))
    assert np.array_equal(sub.angles, sc.angles)
    assert np.array_equal(sub.ap_positions, sc.ap_positions)


def test_manual_empty_ue_scenario():
    # zero-UE drops cannot be generated but can be assembled, e.g. when a
    # cluster serves nobody; shapes must stay consistent
    sc = Scenario(
        ap_positions=np.zeros((3, 2)),
        ue_positions=np.zeros((0, 2)),
        elev_diff=np.zeros((0, 3)),
        angles=np.zeros((0, 3)),
        distances=np.zeros((0, 3)),
        tx_psd=np.zeros(0),
        noise_psd=1e-20,
    )
    assert sc.num_ues == 0 and sc.num_aps == 3
