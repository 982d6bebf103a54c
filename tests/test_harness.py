"""Sweep harness: baseline tiling, CSV layout, determinism, worker pool."""

import io
import re

import numpy as np
import pytest

from lwcf.antenna import AntennaParams
from lwcf.cegmm import CeHyperparams, QosConfig, SubchannelPlan
from lwcf.cluster_alloc import ClusterPlan
from lwcf.harness import (
    CSV_HEADER,
    ExperimentConfig,
    equal_bandwidth_baseline,
    equal_tiles,
    run_experiment,
    run_trial,
    trial_cell,
    write_plan_csv,
)
from lwcf.mimo import rate_density
from lwcf.scenario import ScenarioConfig, generate_scenario

PARAMS = AntennaParams(1.0, 0.15, 130.0, 100e9)
BAND = (100e9, 200e9)
QOS = QosConfig(min_rx_psd=10 ** (-20.4), coherence_gap_db=0.5,
                min_cluster_avg_rate=0.0)

WALL_MS = re.compile(r",[0-9.]+,(ok|infeasible_band|singular_channel)$",
                     re.MULTILINE)


def mask_wall(text: str) -> str:
    return WALL_MS.sub(r",X,\1", text)


def scenario_template(**kw):
    base = dict(area_side=200.0, num_aps=4, num_ues=2,
                elev_diff_range=(5.0, 10.0), total_power=2.0,
                total_bandwidth=10e9, noise_psd=10 ** (-19.8), seed=0)
    base.update(kw)
    return ScenarioConfig(**base)


def fast_experiment(**kw):
    base = dict(
        scenario=scenario_template(),
        params=PARAMS,
        band=BAND,
        hyper=CeHyperparams(num_samples=8, num_elites=3, max_iterations=2,
                            grid_step=200e6, num_subchannels=2),
        qos=QOS,
        sweep="num_ues",
        sweep_values=(2.0, 3.0),
        precoder="zf",
        allocator="equal_bandwidth",
        trials=2,
        base_seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# equal-bandwidth baseline
# ---------------------------------------------------------------------------

def test_baseline_single_tile_centered():
    sc = generate_scenario(scenario_template())
    plan = equal_bandwidth_baseline(sc, PARAMS, 1, BAND, 10e9, "zf")
    assert plan.subchannels == ((150e9, 10e9),)
    want = 10e9 * rate_density(sc, PARAMS, 150e9, "zf")
    assert plan.achieved_rate == pytest.approx(want, rel=1e-12)


def test_baseline_tiles_partition_budget():
    sc = generate_scenario(scenario_template())
    plan = equal_bandwidth_baseline(sc, PARAMS, 4, BAND, 8e9, "zf")
    centers = [c for c, _ in plan.subchannels]
    widths = [w for _, w in plan.subchannels]
    assert centers == [147e9, 149e9, 151e9, 153e9]
    assert widths == [2e9] * 4
    assert sum(widths) == 8e9
    # contiguous: each tile starts where the previous one ends
    for (c1, w1), (c2, w2) in zip(plan.subchannels, plan.subchannels[1:]):
        assert c1 + w1 / 2 == pytest.approx(c2 - w2 / 2, rel=1e-15)
    per_tile = [w * rate_density(sc, PARAMS, c, "zf")
                for c, w in plan.subchannels]
    assert plan.achieved_rate == pytest.approx(sum(per_tile), rel=1e-12)
    assert plan.subchannel_rates == tuple(per_tile)


def test_baseline_rejections():
    sc = generate_scenario(scenario_template())
    with pytest.raises(ValueError):
        equal_bandwidth_baseline(sc, PARAMS, 0, BAND, 1e9, "zf")
    with pytest.raises(ValueError):
        equal_bandwidth_baseline(sc, PARAMS, 2, BAND, 200e9, "zf")


# ---------------------------------------------------------------------------
# experiment config validation
# ---------------------------------------------------------------------------

def test_experiment_config_validation():
    with pytest.raises(ValueError):
        fast_experiment(sweep="num_antennas")
    with pytest.raises(ValueError):
        fast_experiment(allocator="milp")
    with pytest.raises(ValueError):
        fast_experiment(clustering="spectral")
    with pytest.raises(ValueError):
        fast_experiment(precoder="bogus")
    with pytest.raises(ValueError):
        fast_experiment(sweep_values=())
    with pytest.raises(ValueError):
        fast_experiment(sweep_values=(3.0, 2.0))
    with pytest.raises(ValueError):
        fast_experiment(trials=0)
    with pytest.raises(ValueError):
        fast_experiment(workers=0)
    with pytest.raises(ValueError, match="num_clusters must be >= 1"):
        fast_experiment(clustering="kmeans", num_clusters=0)
    # the count only matters to k-means
    fast_experiment(clustering="hierarchical", num_clusters=0)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_experiment_config_rejects_zf_with_more_ues_than_aps(monkeypatch):
    # network-wide zero forcing at any sweep point with K > M: the sweep
    # is rejected before any trial draws a drop
    import lwcf.harness
    drops = []
    monkeypatch.setattr(lwcf.harness, "generate_scenario",
                        lambda *a, **k: drops.append(a))
    for kw in (dict(sweep_values=(2.0, 5.0)),                # 5 UEs, 4 APs
               dict(sweep="num_aps", sweep_values=(1.0, 4.0)),
               dict(sweep="total_bandwidth", sweep_values=(1e9,),
                    scenario=scenario_template(num_ues=5))):
        with pytest.raises(ValueError, match="num_ues <= num_aps"):
            run_experiment(fast_experiment(**kw))
        assert drops == []
        # MRT, and clustering (its rewards fall back to MRT), stay valid
        fast_experiment(precoder="mrt", **kw)
        fast_experiment(clustering="kmeans", **kw)


def test_sweep_rejects_a_budget_wider_than_the_band(monkeypatch):
    """A spectrum budget wider than the band is rejected by its sweep point
    before any trial draws a drop, for the adaptive search and the
    equal-bandwidth baseline alike, whether the sweep varies the budget or
    takes the scenario's."""
    import lwcf.harness
    drops = []
    real = lwcf.harness.generate_scenario
    monkeypatch.setattr(lwcf.harness, "generate_scenario",
                        lambda *a, **k: drops.append(a) or real(*a, **k))
    wide = scenario_template(total_bandwidth=200e9)
    for allocator in ("adaptive_gmm", "equal_bandwidth"):
        for kw, point in ((dict(sweep="total_bandwidth",
                                sweep_values=(5e9, 200e9)),
                           r"total_bandwidth=2e\+11"),
                          (dict(scenario=wide), "num_ues=2")):
            config = fast_experiment(allocator=allocator, trials=1, **kw)
            with pytest.raises(ValueError,
                               match=rf"sweep point {point}: the spectrum "
                                     r"budget exceeds the band width 1e\+11"):
                run_experiment(config)
            assert drops == []
        # a budget of the whole band still runs
        text = run_experiment(fast_experiment(
            allocator=allocator, trials=1, sweep="total_bandwidth",
            sweep_values=(BAND[1] - BAND[0],)))
        assert text.split("\n")[1].endswith(",ok") and len(drops) == 1
        drops.clear()


def test_sweep_rejects_fewer_aps_than_kmeans_clusters(monkeypatch):
    """A sweep point with fewer APs than k-means clusters is rejected by
    name before any trial draws a drop, whether the sweep varies the AP
    count or takes the scenario's."""
    import lwcf.harness
    drops = []
    real = lwcf.harness.generate_scenario
    monkeypatch.setattr(lwcf.harness, "generate_scenario",
                        lambda *a, **k: drops.append(a) or real(*a, **k))
    for kw, point in ((dict(sweep="num_aps", sweep_values=(2.0, 4.0)),
                       "num_aps=2"),
                      (dict(scenario=scenario_template(num_aps=2)),
                       "num_ues=2")):
        config = fast_experiment(clustering="kmeans", num_clusters=3,
                                 trials=1, **kw)
        with pytest.raises(ValueError,
                           match=rf"sweep point {point}: fewer APs than the "
                                 "3 k-means clusters"):
            run_experiment(config)
        assert drops == []
    # as many APs as clusters still runs
    text = run_experiment(fast_experiment(
        clustering="kmeans", num_clusters=4, trials=1, sweep="num_aps",
        sweep_values=(4.0,)))
    assert text.split("\n")[1].endswith(",ok") and len(drops) == 1


def test_run_experiment_layout_and_seeds():
    text = run_experiment(fast_experiment())
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    # two sweep values, each two trial rows plus one summary row
    assert len(lines) == 1 + 2 * 3
    for vi, value in enumerate(("2", "3")):
        for t in range(2):
            fields = lines[1 + vi * 3 + t].split(",")
            assert fields[0] == value
            assert fields[1] == str(t)
            assert fields[2] == str(t)          # seed = base_seed + trial
            assert fields[3] == "equal_bandwidth"
            assert fields[4] == "none"
            assert fields[5] == "zf"
            assert float(fields[6]) > 0.0
            assert fields[9] == "ok"
        summary = lines[1 + vi * 3 + 2].split(",")
        assert summary[1] == "summary" and summary[9] == ""


def test_run_experiment_summary_matches_shown_rates():
    text = run_experiment(fast_experiment(trials=3))
    lines = text.strip().split("\n")
    for vi in range(2):
        block = lines[1 + vi * 4: 1 + vi * 4 + 4]
        shown = [float(r.split(",")[6]) for r in block[:3]]
        summary = block[3].split(",")
        assert summary[6] == format(float(np.mean(shown)), ".6g")
        want_stderr = float(np.std(shown, ddof=1) / np.sqrt(3))
        assert summary[7] == format(want_stderr, ".6g")


def test_run_experiment_deterministic_reruns():
    config = fast_experiment(allocator="adaptive_gmm", trials=1,
                             sweep_values=(2.0,))
    a = run_experiment(config)
    b = run_experiment(config)
    assert a != ""
    assert mask_wall(a) == mask_wall(b)
    assert a.split("\n")[1].endswith(",ok")


def test_run_experiment_worker_pool_matches_sequential():
    config = fast_experiment(trials=2)
    seq = run_experiment(config)
    par = run_experiment(fast_experiment(trials=2, workers=2))
    assert mask_wall(seq) == mask_wall(par)


def test_run_experiment_flags_infeasible_band():
    strict = QosConfig(min_rx_psd=1.0, coherence_gap_db=0.5)
    config = fast_experiment(allocator="adaptive_gmm", qos=strict,
                             trials=1, sweep_values=(2.0,))
    lines = run_experiment(config).strip().split("\n")
    trial = lines[1].split(",")
    assert trial[6] == "" and trial[9] == "infeasible_band"
    summary = lines[2].split(",")
    assert summary[6] == ""          # nothing to average


def test_run_experiment_clustered_paths():
    for clustering in ("kmeans", "hierarchical"):
        config = fast_experiment(clustering=clustering, trials=1,
                                 sweep_values=(2.0,))
        lines = run_experiment(config).strip().split("\n")
        fields = lines[1].split(",")
        assert fields[4] == clustering
        assert fields[9] == "ok"
        assert float(fields[6]) > 0.0


@pytest.mark.parametrize("clustering", ["kmeans", "hierarchical"])
def test_clustered_equal_bandwidth_trial_with_more_ues_than_aps(clustering):
    """The clusters rate the equal tiles under their own precoder fallback,
    so network-wide zero forcing, impossible with K > M, is never tried."""
    config = fast_experiment(clustering=clustering,
                             scenario=scenario_template(num_aps=3, num_ues=6))
    plan = run_trial(config, *trial_cell(config, config.scenario.num_ues, 0))
    assert isinstance(plan, ClusterPlan)
    assert sorted(cw for subs in plan.subchannels for cw in subs) == list(
        equal_tiles(config.hyper.num_subchannels, BAND, 10e9))
    assert plan.total_rate > 0.0


def test_trial_hierarchical_clustering_uses_configured_precoder(monkeypatch):
    import lwcf.harness
    real = lwcf.harness.hierarchical_clustering
    methods = []

    def spy(*args, **kwargs):
        methods.append(kwargs.get("method"))
        return real(*args, **kwargs)

    monkeypatch.setattr(lwcf.harness, "hierarchical_clustering", spy)
    for precoder in ("mrt", "zf"):
        config = fast_experiment(precoder=precoder, clustering="hierarchical")
        _, status = lwcf.harness._trial_rate(config, 2.0, 0)
        assert status == "ok"
    assert methods == ["mrt", "zf"]


def test_run_experiment_bandwidth_sweep_value_format():
    config = fast_experiment(sweep="total_bandwidth",
                             sweep_values=(5e9, 10e9), trials=1)
    lines = run_experiment(config).strip().split("\n")
    assert lines[1].split(",")[0] == "5000000000"
    assert lines[4].split(",")[0] == "10000000000"


def test_write_plan_csv_format():
    plan = SubchannelPlan(((150e9, 2e9), (170e9, 1e9)), 3e10, (2e10, 1e10))
    buf = io.StringIO()
    write_plan_csv(plan, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "subchannel_index,center_hz,width_hz,subchannel_rate_bps"
    assert lines[1] == "0,150000000000,2000000000,2e+10"
    assert lines[2] == "1,170000000000,1000000000,1e+10"
