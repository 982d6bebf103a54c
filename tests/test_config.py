"""Configuration loading, override plumbing, and the CLI front end."""

import numpy as np
import pytest

from lwcf.cli import main
from lwcf.config import DEFAULTS, dbm_per_hz_to_w, load_config

FAST_OVERRIDES = [
    "scenario.num_aps=4",
    "scenario.num_ues=2",
    "ce.num_samples=8",
    "ce.num_elites=3",
    "ce.max_iterations=2",
    "ce.grid_step_hz=200e6",
    "ce.num_subchannels=2",
    "experiment.trials=1",
    "experiment.sweep_values=4",
    "experiment.sweep=num_aps",
]


def test_dbm_conversion():
    assert dbm_per_hz_to_w(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_per_hz_to_w(-30.0) == pytest.approx(1e-6, rel=1e-12)
    assert dbm_per_hz_to_w(-174.0) == pytest.approx(10 ** (-20.4), rel=1e-12)


def test_defaults_round_trip():
    app = load_config()
    assert app.scenario.area_side == 200.0
    assert app.scenario.num_aps == 32
    assert app.scenario.num_ues == 10
    assert app.scenario.total_power == 2.0
    assert app.scenario.noise_psd == pytest.approx(10 ** (-19.8))
    assert app.band == (100e9, 200e9)
    assert app.params.cutoff_frequency == 100e9
    assert app.qos.min_rx_psd == pytest.approx(10 ** (-20.4))
    assert app.qos.coherence_gap_db == 0.5
    assert app.hyper.num_samples == 50
    assert app.sweep == "num_aps"
    assert app.sweep_values == (16.0, 32.0, 64.0)
    assert app.allocator == "adaptive_gmm"
    assert app.clustering == "none"
    assert app.output is None
    assert app.trials == 20 and app.workers == 1


def test_config_file_overrides(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[scenario]\n"
        "num_aps = 8\n"
        "seed = 9\n"
        "[antenna]\n"
        "cutoff_frequency_hz = 200e9\n"
        "band_upper_hz = 300e9\n"
        "[experiment]\n"
        "sweep_values = 8, 16\n"
        "trials = 2\n",
        encoding="utf-8")
    app = load_config(str(ini))
    assert app.scenario.num_aps == 8
    assert app.scenario.seed == 9
    assert app.band == (200e9, 300e9)
    assert app.sweep_values == (8.0, 16.0)
    assert app.trials == 2
    # untouched keys keep their defaults
    assert app.scenario.num_ues == 10


def test_unknown_section_and_key_rejected(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[misc]\nx = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="misc"):
        load_config(str(bad_section))
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[scenario]\nnum_antennas = 4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="num_antennas"):
        load_config(str(bad_key))


def test_override_parsing_errors():
    with pytest.raises(ValueError):
        load_config(overrides=["scenario.num_aps"])       # missing '='
    with pytest.raises(ValueError):
        load_config(overrides=["num_aps=4"])              # missing section
    with pytest.raises(ValueError):
        load_config(overrides=["scenario.bogus=1"])
    with pytest.raises(ValueError):
        load_config(overrides=["experiment.allocator=milp"])
    with pytest.raises(ValueError):
        load_config(overrides=["clustering.mode=spectral"])
    with pytest.raises(ValueError, match="experiment.precoder must be one of"):
        load_config(overrides=["experiment.precoder=bogus"])


def test_overrides_apply_after_file(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[scenario]\nnum_aps = 8\n", encoding="utf-8")
    app = load_config(str(ini), overrides=["scenario.num_aps=16"])
    assert app.scenario.num_aps == 16


def test_defaults_table_is_complete():
    # each DEFAULTS entry must survive a load; guards against dead keys
    app = load_config(overrides=[
        f"{section}.{key}={value}"
        for section, entries in DEFAULTS.items()
        for key, value in entries.items() if value != ""])
    assert app.scenario.num_aps == 32


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_baseline_stdout(capsys):
    code, out, err = run_cli(
        ["baseline", "--set", "scenario.num_aps=4",
         "--set", "scenario.num_ues=2"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "subchannel_index,center_hz,width_hz,subchannel_rate_bps"
    assert len(lines) == 1 + 4           # default tile count
    assert "total_rate_bps=" in err


def test_cli_simulate_adaptive(tmp_path, capsys):
    out_file = tmp_path / "plan.csv"
    args = ["simulate", "--output", str(out_file)]
    for ov in FAST_OVERRIDES:
        args += ["--set", ov]
    code, _, err = run_cli(args, capsys)
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    assert text.startswith("subchannel_index,")
    assert "total_rate_bps=" in err


def test_cli_simulate_clustered(capsys):
    args = ["simulate", "--set", "clustering.mode=kmeans"]
    for ov in FAST_OVERRIDES:
        args += ["--set", ov]
    code, out, err = run_cli(args, capsys)
    assert code == 0
    assert out.startswith("cluster_index,")
    assert "feasible=" in err


def test_cli_sweep_to_file(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    args = ["sweep", "--output", str(out_file),
            "--set", "experiment.allocator=equal_bandwidth",
            "--set", "experiment.sweep_values=4,6",
            "--set", "experiment.trials=2",
            "--set", "scenario.num_ues=2",
            "--set", "scenario.num_aps=4"]
    code, out, err = run_cli(args, capsys)
    assert code == 0
    assert out == ""
    assert "wrote" in err
    lines = out_file.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].startswith("sweep_value,")
    assert len(lines) == 1 + 2 * 3


def test_cli_cluster_modes(capsys):
    for mode in ("kmeans", "hierarchical"):
        code, out, err = run_cli(
            ["cluster", "--set", f"clustering.mode={mode}",
             "--set", "scenario.num_aps=6", "--set", "scenario.num_ues=3"],
            capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,index,serving_ap,cluster_index"
        assert len(lines) == 1 + 6 + 3
        assert "clusters=" in err


def test_cli_cluster_requires_mode(capsys):
    code, _, err = run_cli(["cluster"], capsys)
    assert code == 2
    assert "error:" in err


def test_cli_rejects_unknown_override(capsys):
    code, _, err = run_cli(
        ["baseline", "--set", "scenario.bogus=1"], capsys)
    assert code == 2
    assert "error:" in err


def test_cli_zf_with_more_ues_than_aps_names_the_cause(capsys):
    # simulate: 2 APs cannot zero-force 3 UEs, but centers are accessible
    args = ["simulate"]
    for ov in FAST_OVERRIDES:
        args += ["--set", ov]
    args += ["--set", "scenario.num_aps=2", "--set", "scenario.num_ues=3"]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert "zf precoder failed" in err and "no sampled" not in err
    # sweep: the 16-AP point cannot serve 20 UEs; rejected before any trial
    code, out, err = run_cli(["sweep", "--set", "scenario.num_ues=20"], capsys)
    assert code == 2 and out == ""
    assert "num_ues <= num_aps" in err


def test_cli_hierarchical_clustering_uses_configured_precoder(
        monkeypatch, capsys):
    import lwcf.harness
    real = lwcf.harness.hierarchical_clustering
    methods = []

    def spy(*args, **kwargs):
        methods.append(kwargs.get("method"))
        return real(*args, **kwargs)

    monkeypatch.setattr(lwcf.harness, "hierarchical_clustering", spy)
    for precoder in ("mrt", "zf"):
        code, _, _ = run_cli(
            ["cluster", "--set", "clustering.mode=hierarchical",
             "--set", f"experiment.precoder={precoder}",
             "--set", "scenario.num_aps=6", "--set", "scenario.num_ues=3"],
            capsys)
        assert code == 0
    assert methods == ["mrt", "zf"]


@pytest.mark.parametrize("mode,allocator", [
    pytest.param("none", "adaptive_gmm", id="none"),
    pytest.param("kmeans", "adaptive_gmm", id="kmeans"),
    pytest.param("hierarchical", "adaptive_gmm", id="hierarchical"),
    ("none", "equal_bandwidth"), ("kmeans", "equal_bandwidth"),
    ("none", "fixed_gmm")])
def test_cli_simulate_reproduces_sweep_trial_zero(mode, allocator, capsys):
    """Same geometry seed, optimiser stream and sweep point: ``simulate``
    and trial 0 of ``sweep`` run the same trial."""
    sets = FAST_OVERRIDES + ["scenario.seed=7", "experiment.base_seed=7",
                             "experiment.trials=2", f"clustering.mode={mode}",
                             f"experiment.allocator={allocator}"]
    args = [a for ov in sets for a in ("--set", ov)]
    code, _, err = run_cli(["simulate"] + args, capsys)
    assert code == 0
    simulated = err.split("total_rate_bps=")[1].split()[0]
    code, out, _ = run_cli(["sweep"] + args, capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    (row,) = [r for r in rows if r[0] == "4" and r[1] == "0"]
    assert row[3] == allocator and row[4] == mode and row[9] == "ok"
    assert row[6] == simulated


def test_cli_seed_changes_plan(tmp_path, capsys):
    outputs = []
    for seed in ("0", "1"):
        out_file = tmp_path / f"plan{seed}.csv"
        args = ["simulate", "--output", str(out_file),
                "--set", f"scenario.seed={seed}"]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        code, _, _ = run_cli(args, capsys)
        assert code == 0
        outputs.append(out_file.read_text(encoding="utf-8"))
    assert outputs[0] != outputs[1]
