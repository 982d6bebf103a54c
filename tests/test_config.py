"""Configuration loading, override plumbing, and the CLI front end."""

import io
import re

import numpy as np
import pytest

from lwcf.cli import main
from lwcf.clustering import write_clustering_csv
from lwcf.config import DEFAULTS, dbm_per_hz_to_w, load_config
from lwcf.harness import (equal_bandwidth_baseline, run_experiment,
                          write_plan_csv)
from lwcf.scenario import generate_scenario

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
        "[antenna]\n"
        "cutoff_frequency_hz = 200e9\n"
        "band_upper_hz = 300e9\n"
        "[experiment]\n"
        "sweep_values = 8, 16\n"
        "trials = 2\n"
        "base_seed = 9\n",
        encoding="utf-8")
    app = load_config(str(ini))
    assert app.scenario.num_aps == 8
    # the scenario template is trial 0's drop
    assert app.scenario.seed == app.base_seed == 9
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


def test_scenario_seed_is_an_unknown_key(tmp_path, capsys):
    """A drop's geometry seed comes from ``experiment.base_seed`` alone;
    ``scenario.seed`` is refused, as an override and in a file."""
    ini = tmp_path / "seed.ini"
    ini.write_text("[scenario]\nseed = 1\n", encoding="utf-8")
    for args in (["--set", "scenario.seed=1"], ["--config", str(ini)]):
        code, out, err = run_cli(["simulate"] + args, capsys)
        assert (code, out) == (2, "")
        assert "unknown key scenario.seed" in err


MALFORMED_INI = {
    "no-section-header": "num_aps = 4\n",
    "repeated-option": "[scenario]\nnum_aps = 4\nnum_aps = 5\n",
    "repeated-section": "[scenario]\nnum_aps = 4\n[scenario]\nnum_ues = 2\n",
    "key-without-equals": "[scenario]\nnum_aps\n",
}


@pytest.mark.parametrize("text", MALFORMED_INI.values(), ids=MALFORMED_INI)
def test_malformed_ini_is_refused_naming_the_file(text, tmp_path, capsys):
    """An INI file that configparser cannot read is a ValueError naming
    the file, so the CLI exits 2 with an error line, not a traceback."""
    ini = tmp_path / "bad.ini"
    ini.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(str(ini))):
        load_config(str(ini))
    code, out, err = run_cli(["simulate", "--config", str(ini)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {ini}: ")


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


@pytest.mark.parametrize("extra", [
    pytest.param([], id="defaults"),
    pytest.param(["clustering.mode=kmeans"], id="kmeans"),
    pytest.param(["experiment.precoder=mrt", "clustering.mode=kmeans"],
                 id="mrt-kmeans")])
def test_cli_baseline_is_the_unclustered_equal_bandwidth_simulate(extra,
                                                                 capsys):
    """``baseline`` runs the ``simulate`` trial with the equal-bandwidth
    allocator and no clustering, whatever those two keys say; the plan is
    the ``equal_bandwidth_baseline`` of trial 0's drop, the template."""
    sets = ["scenario.num_aps=4", "scenario.num_ues=2", *extra]
    args = [a for ov in sets for a in ("--set", ov)]
    code, out, err = run_cli(["baseline"] + args, capsys)
    assert code == 0
    forced = ["experiment.allocator=equal_bandwidth", "clustering.mode=none"]
    assert run_cli(["simulate"] + args
                   + [a for ov in forced for a in ("--set", ov)],
                   capsys) == (0, out, err)
    config = load_config(None, sets)
    plan = equal_bandwidth_baseline(
        generate_scenario(config.scenario), config.params,
        config.hyper.num_subchannels, config.band,
        config.scenario.total_bandwidth, config.precoder)
    expected = io.StringIO()
    write_plan_csv(plan, expected)
    assert out == expected.getvalue()
    assert err == f"total_rate_bps={plan.achieved_rate:.6g}\n"


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


def without_wall_time(text: str) -> list[list[str]]:
    """The rows of a sweep CSV without the wall_time_ms column (index 8),
    the one that differs between reruns."""
    return [row[:8] + row[9:] for row in
            (line.split(",") for line in text.strip().split("\n"))]


def test_cli_writes_experiment_output(tmp_path, capsys):
    """Every command writes its CSV to ``experiment.output`` when set, and
    ``--output`` wins over it; the sweep file is ``run_experiment``'s text
    up to the wall clock, and a failed run writes nothing."""
    sets = FAST_OVERRIDES + ["experiment.allocator=equal_bandwidth"]
    keyed, flagged = tmp_path / "keyed.csv", tmp_path / "flagged.csv"
    for command in ("sweep", "simulate", "baseline", "cluster"):
        args = [command, "--set", f"experiment.output={keyed}",
                "--set", "clustering.mode=kmeans"]
        args += [a for ov in sets for a in ("--set", ov)]
        code, out, err = run_cli(args, capsys)
        assert code == 0 and out == "" and f"wrote {keyed}" in err
        text = keyed.read_text(encoding="utf-8")
        assert text.count("\n") >= 2
        if command == "sweep":
            config = load_config(None, sets + ["clustering.mode=kmeans"])
            assert without_wall_time(text) == without_wall_time(
                run_experiment(config))
        keyed.unlink()
        code, out, _ = run_cli(args + ["--output", str(flagged)], capsys)
        assert code == 0 and out == "" and not keyed.exists()
        assert without_wall_time(flagged.read_text(encoding="utf-8")) == (
            without_wall_time(text))
    # a run that fails leaves the file it would have written as it was
    keyed.write_text("kept", encoding="utf-8")
    code, _, _ = run_cli(["simulate", "--set", f"experiment.output={keyed}",
                          "--set", "clustering.mode=kmeans",
                          "--set", "clustering.num_clusters=5"]
                         + [a for ov in sets for a in ("--set", ov)], capsys)
    assert code == 2 and keyed.read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("key", [
    "scenario.num_aps", "scenario.num_ues",
    "ce.num_samples", "ce.num_elites", "ce.max_iterations",
    "ce.max_components", "ce.num_subchannels", "clustering.num_clusters",
    "experiment.trials", "experiment.base_seed", "experiment.workers",
    "experiment.sweep_values"])
def test_integer_keys_reject_fractional_values(key):
    """An integer key, and a sweep value of num_aps or num_ues, is rejected
    by name at load when it has a fractional part, not truncated; an
    integral float spelling still loads."""
    sweep = (["experiment.sweep=num_ues"]
             if key == "experiment.sweep_values" else [])
    with pytest.raises(ValueError, match=key.split(".")[-1]):
        load_config(None, sweep + [f"{key}=16.7"])
    config = load_config(None, sweep + [f"{key}=1.6e1"])
    section, name = key.split(".")
    if key == "experiment.sweep_values":
        assert config.sweep_values == (16.0,)
    elif section == "scenario":
        assert getattr(config.scenario, name) == 16


@pytest.mark.parametrize("override", [
    "scenario.area_side_m=nan", "scenario.total_power_w=inf",
    "scenario.noise_psd_dbm_hz=nan", "ce.grid_step_hz=nan",
    "antenna.band_upper_hz=inf", "qos.coherence_gap_db=",
    "scenario.num_aps=abc", "experiment.sweep_values=16,abc"])
def test_numbers_reject_malformed_and_non_finite_values(override, capsys):
    """A number that does not parse, or is NaN or infinite, is rejected by
    its key when the configuration loads, and the CLI exits 2 naming it."""
    key = override.partition("=")[0]
    with pytest.raises(ValueError, match=re.escape(key)):
        load_config(None, [override])
    code, out, err = run_cli(["simulate", "--set", override], capsys)
    assert code == 2 and out == "" and key in err


@pytest.mark.parametrize("key", ["scenario.noise_psd_dbm_hz",
                                 "qos.min_rx_psd_dbm_hz"])
def test_dbm_keys_reject_values_that_overflow_in_watts(key, capsys):
    """A finite dBm/Hz value whose W/Hz does not fit a float is rejected by
    its key when the configuration loads, and the CLI exits 2 naming it."""
    with pytest.raises(ValueError, match=re.escape(key)):
        load_config(None, [f"{key}=1e300"])
    code, out, err = run_cli(["simulate", "--set", f"{key}=1e300"], capsys)
    assert code == 2 and out == "" and key in err


# one value out of range per range-checked key; qos.min_rx_psd_dbm_hz has
# none, as every dBm/Hz value is a nonnegative W/Hz
OUT_OF_RANGE = [
    "scenario.area_side_m=0", "scenario.num_aps=0", "scenario.num_ues=0",
    "scenario.elev_diff_min_m=0", "scenario.elev_diff_max_m=1",
    "scenario.total_power_w=-1", "scenario.total_bandwidth_hz=0",
    "scenario.noise_psd_dbm_hz=-1e300", "antenna.radiation_efficiency=1.5",
    "antenna.aperture_length_m=0", "antenna.attenuation_per_m=-1",
    "antenna.cutoff_frequency_hz=0", "antenna.band_upper_hz=50e9",
    "ce.num_samples=0", "ce.num_elites=0", "ce.num_elites=60",
    "ce.max_iterations=0", "ce.max_components=0", "ce.smoothing=2",
    "ce.grid_step_hz=0", "ce.num_subchannels=0", "qos.coherence_gap_db=-1",
    "qos.min_cluster_avg_rate_bps=-1", "experiment.sweep_values=",
    "experiment.sweep_values=-16", "experiment.sweep_values=32,16",
    "experiment.trials=0", "experiment.workers=0"]


@pytest.mark.parametrize("override", OUT_OF_RANGE)
def test_range_checks_name_the_key(override, capsys):
    """A value out of its key's range is rejected when the configuration
    loads, naming the INI key a user wrote ahead of the check's message,
    and the CLI exits 2 with the key on stderr."""
    key = override.partition("=")[0]
    with pytest.raises(ValueError, match=f"^{re.escape(key)}[: ]"):
        load_config(None, [override])
    code, out, err = run_cli(["simulate", "--set", override], capsys)
    assert code == 2 and out == "" and err.startswith(f"error: {key}")


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
    sets = FAST_OVERRIDES + ["experiment.base_seed=7", "experiment.trials=2",
                             f"clustering.mode={mode}",
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


@pytest.mark.parametrize("mode", ["none", "kmeans"])
def test_cli_simulate_trial_reproduces_sweep_rows(mode, capsys):
    """``simulate --trial t`` takes trial t's drop (geometry seed
    ``base_seed + t``) and optimiser stream, so with a nonzero base seed it
    gives the sweep's rows for trials 0 and 1; without ``--trial`` it runs
    trial 0."""
    sets = FAST_OVERRIDES + ["experiment.base_seed=3", "experiment.trials=2",
                             f"clustering.mode={mode}"]
    args = [a for ov in sets for a in ("--set", ov)]
    code, out, _ = run_cli(["sweep"] + args, capsys)
    assert code == 0
    rows = {r[1]: r for r in (line.split(",")
                              for line in out.strip().split("\n")[1:])
            if r[0] == "4" and r[1] != "summary"}
    assert [rows[t][2] for t in ("0", "1")] == ["3", "4"]
    simulated = {}
    for trial in (None, "0", "1"):
        extra = [] if trial is None else ["--trial", trial]
        code, _, err = run_cli(["simulate"] + args + extra, capsys)
        assert code == 0
        simulated[trial] = err.split("total_rate_bps=")[1].split()[0]
    for t in ("0", "1"):
        assert rows[t][9] == "ok" and rows[t][6] == simulated[t]
    assert simulated[None] == simulated["0"]


def test_cli_simulate_rejects_a_negative_trial(capsys):
    code, _, err = run_cli(["simulate", "--trial", "-1"], capsys)
    assert code == 2
    assert "trial must be >= 0" in err


@pytest.mark.parametrize("command", [["simulate"], ["simulate", "--trial",
                                                  "1"], ["cluster"]])
def test_cli_single_runs_reject_more_kmeans_clusters_than_aps(
        monkeypatch, command, capsys):
    """A single run with more k-means clusters than APs stops before any
    drop is drawn, with a message that names both keys."""
    import lwcf.cli
    import lwcf.harness
    drops = []
    for module in (lwcf.cli, lwcf.harness):
        monkeypatch.setattr(module, "generate_scenario",
                            lambda *a, **k: drops.append(a))
    sets = ["clustering.mode=kmeans", "clustering.num_clusters=5",
            "scenario.num_aps=4"]
    code, out, err = run_cli(command + [a for ov in sets
                                        for a in ("--set", ov)], capsys)
    assert (code, out, drops) == (2, "", [])
    assert err == ("error: scenario.num_aps=4: fewer APs than the 5 k-means "
                   "clusters of clustering.num_clusters\n")


WIDE_BUDGET = ("error: scenario.total_bandwidth_hz=1.5e+11: the spectrum "
               "budget exceeds the band width 1e+11 Hz\n")
ZF_SHAPE = ("error: scenario.num_ues=40: the zf precoder failed: zero forcing "
            "needs num_ues <= num_aps, got K=40 UEs and M=32 APs; use "
            "precoder mrt or clustering\n")


WIDE = ["scenario.total_bandwidth_hz=150e9"]
WIDE_HIERARCHICAL = WIDE + ["experiment.allocator=equal_bandwidth",
                            "clustering.mode=hierarchical"]
SINGLE_RUNS = {"simulate": ["simulate"],
               "trial": ["simulate", "--trial", "1"],
               "baseline": ["baseline"]}


@pytest.mark.parametrize("command, sets, message", [
    pytest.param(command, sets, message, id=f"{rule}-{name}")
    for name, command in SINGLE_RUNS.items()
    for rule, sets, message in (
        ("budget", WIDE, WIDE_BUDGET),
        ("budget-hierarchical", WIDE_HIERARCHICAL, WIDE_BUDGET),
        ("zf-shape", ["scenario.num_ues=40"], ZF_SHAPE))
] + [pytest.param(["cluster"], WIDE_HIERARCHICAL, WIDE_BUDGET,
                  id="budget-cluster")])
def test_cli_single_runs_reject_an_infeasible_drop_by_key(
        monkeypatch, command, sets, message, capsys):
    """Every rule of ``check_drop`` stops a single run before any drop is
    drawn, with a message that names the scenario key the rule reads: a
    spectrum budget wider than the band (also for a hierarchical
    equal-bandwidth run, which used to cluster the drop first, and for
    ``cluster``) and network-wide zero forcing with more UEs than APs."""
    import lwcf.cli
    import lwcf.harness
    drops = []
    for module in (lwcf.cli, lwcf.harness):
        monkeypatch.setattr(module, "generate_scenario",
                            lambda *a, **k: drops.append(a))
    code, out, err = run_cli(command + [a for ov in sets
                                        for a in ("--set", ov)], capsys)
    assert (code, out, drops, err) == (2, "", [], message)


@pytest.mark.parametrize("mode", ["kmeans", "hierarchical"])
def test_cli_cluster_trial_is_the_clustering_of_that_trial(monkeypatch, mode,
                                                           capsys):
    """``cluster --trial t`` writes the clustering that ``run_trial``
    builds for sweep trial t (trial t's drop and optimiser stream); without
    ``--trial`` it is trial 0's and differs."""
    import lwcf.harness
    sets = ["scenario.num_aps=8", "scenario.num_ues=4",
            "experiment.base_seed=3", "experiment.allocator=equal_bandwidth",
            f"clustering.mode={mode}"]
    args = ["cluster"] + [a for ov in sets for a in ("--set", ov)]
    code, out, _ = run_cli(args + ["--trial", "1"], capsys)
    assert code == 0
    built = []
    real = lwcf.harness.build_clustering
    monkeypatch.setattr(lwcf.harness, "build_clustering",
                        lambda *a: built.append(real(*a)) or built[-1])
    config = load_config(None, sets)
    lwcf.harness.run_trial(config, *lwcf.harness.trial_cell(
        config, config.scenario.num_aps, 1))
    expected = io.StringIO()
    write_clustering_csv(built[0], expected)
    assert out == expected.getvalue()
    code, untried, _ = run_cli(args, capsys)
    assert code == 0 and untried != out


def test_cli_seed_changes_plan(tmp_path, capsys):
    outputs = []
    for seed in ("0", "1"):
        out_file = tmp_path / f"plan{seed}.csv"
        args = ["simulate", "--output", str(out_file),
                "--set", f"experiment.base_seed={seed}"]
        for ov in FAST_OVERRIDES:
            args += ["--set", ov]
        code, _, _ = run_cli(args, capsys)
        assert code == 0
        outputs.append(out_file.read_text(encoding="utf-8"))
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("command", ["simulate", "baseline"])
def test_cli_single_run_takes_the_base_seed_drop(command, capsys):
    """Without ``--trial`` a single run is trial 0 of the sweep: its drop
    is drawn from ``experiment.base_seed``, so at base seed 5 it prints the
    rate of the sweep's trial-0 row, which differs from base seed 0's."""
    sets = FAST_OVERRIDES + ["experiment.allocator=equal_bandwidth"]
    rates = {}
    for seed in ("0", "5"):
        args = [a for ov in sets + [f"experiment.base_seed={seed}"]
                for a in ("--set", ov)]
        code, out, _ = run_cli(["sweep"] + args, capsys)
        assert code == 0
        (row,) = [r for r in (line.split(",")
                              for line in out.strip().split("\n")[1:])
                  if r[:3] == ["4", "0", seed]]
        code, _, err = run_cli([command] + args, capsys)
        assert code == 0 and row[9] == "ok"
        assert err == f"total_rate_bps={row[6]}\n"
        rates[seed] = row[6]
    assert rates["0"] != rates["5"]
