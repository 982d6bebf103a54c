"""INI configuration: defaults, file loading, and dotted-key overrides,
parsed into the one configuration type, ``harness.ExperimentConfig``.

One file carries every knob, grouped into sections that mirror the package
modules.  Unknown sections or keys are hard errors so typos cannot silently
fall back to defaults.  Power densities are written in dBm/Hz in the file
and converted to W/Hz here.
"""

from __future__ import annotations

import configparser

from .antenna import AntennaParams
from .cegmm import CeHyperparams, QosConfig
from .harness import ExperimentConfig
from .scenario import ScenarioConfig

DEFAULTS: dict[str, dict[str, str]] = {
    "scenario": {
        "area_side_m": "200",
        "num_aps": "32",
        "num_ues": "10",
        "elev_diff_min_m": "5",
        "elev_diff_max_m": "10",
        "total_power_w": "2",
        "total_bandwidth_hz": "10e9",
        "noise_psd_dbm_hz": "-168",
        "seed": "0",
    },
    "antenna": {
        "radiation_efficiency": "1.0",
        "aperture_length_m": "0.15",
        "attenuation_per_m": "130",
        "cutoff_frequency_hz": "100e9",
        "band_upper_hz": "200e9",
    },
    "ce": {
        "num_samples": "50",
        "num_elites": "10",
        "max_iterations": "30",
        "max_components": "5",
        "smoothing": "0.7",
        "grid_step_hz": "10e6",
        "num_subchannels": "4",
    },
    "qos": {
        "min_rx_psd_dbm_hz": "-174",
        "coherence_gap_db": "0.5",
        "min_cluster_avg_rate_bps": "50e6",
    },
    "clustering": {
        "mode": "none",
        "num_clusters": "2",
    },
    "experiment": {
        "sweep": "num_aps",
        "sweep_values": "16,32,64",
        "precoder": "zf",
        "allocator": "adaptive_gmm",
        "trials": "20",
        "base_seed": "0",
        "output": "",
        "workers": "1",
    },
}


def dbm_per_hz_to_w(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _reject_unknown(parser: configparser.ConfigParser, origin: str) -> None:
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ValueError(f"{origin}: unknown section [{section}]")
        for key in parser.options(section):
            if key not in DEFAULTS[section]:
                raise ValueError(f"{origin}: unknown key {section}.{key}")


def _getint(section: configparser.SectionProxy, key: str) -> int:
    """An integer key, which may be spelled as a float such as ``1e3``; a
    value with a fractional part is rejected by name, not truncated."""
    value = section.getfloat(key)
    if not value.is_integer():
        raise ValueError(f"{section.name}.{key} must be an integer, "
                         f"got {section.get(key)}")
    return int(value)


def apply_overrides(parser: configparser.ConfigParser, overrides) -> None:
    """Apply ``section.key=value`` strings on top of the parsed file."""
    for item in overrides:
        head, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"override {item!r} is not section.key=value")
        section, dot, key = head.strip().partition(".")
        if not dot:
            raise ValueError(f"override {item!r} is not section.key=value")
        section, key = section.strip(), key.strip()
        if section not in DEFAULTS or key not in DEFAULTS[section]:
            raise ValueError(f"override targets unknown key {section}.{key}")
        parser.set(section, key, value.strip())


def load_config(path: str | None = None, overrides=()) -> ExperimentConfig:
    """Defaults, then the optional INI file, then overrides; the returned
    ExperimentConfig validates itself."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(DEFAULTS)
    if path is not None:
        loaded = configparser.ConfigParser(interpolation=None)
        with open(path, encoding="utf-8") as fh:
            loaded.read_file(fh)
        _reject_unknown(loaded, path)
        parser.read_dict({s: dict(loaded.items(s)) for s in loaded.sections()})
    apply_overrides(parser, overrides)

    sc = parser["scenario"]
    scenario = ScenarioConfig(
        area_side=sc.getfloat("area_side_m"),
        num_aps=_getint(sc, "num_aps"),
        num_ues=_getint(sc, "num_ues"),
        elev_diff_range=(sc.getfloat("elev_diff_min_m"),
                         sc.getfloat("elev_diff_max_m")),
        total_power=sc.getfloat("total_power_w"),
        total_bandwidth=sc.getfloat("total_bandwidth_hz"),
        noise_psd=dbm_per_hz_to_w(sc.getfloat("noise_psd_dbm_hz")),
        seed=_getint(sc, "seed"),
    )
    an = parser["antenna"]
    params = AntennaParams(
        radiation_efficiency=an.getfloat("radiation_efficiency"),
        aperture_length=an.getfloat("aperture_length_m"),
        attenuation=an.getfloat("attenuation_per_m"),
        cutoff_frequency=an.getfloat("cutoff_frequency_hz"),
    )
    band = (params.cutoff_frequency, an.getfloat("band_upper_hz"))
    if band[1] <= band[0]:
        raise ValueError("band_upper_hz must exceed cutoff_frequency_hz")
    ce = parser["ce"]
    hyper = CeHyperparams(
        num_samples=_getint(ce, "num_samples"),
        num_elites=_getint(ce, "num_elites"),
        max_iterations=_getint(ce, "max_iterations"),
        max_components=_getint(ce, "max_components"),
        smoothing=ce.getfloat("smoothing"),
        grid_step=ce.getfloat("grid_step_hz"),
        num_subchannels=_getint(ce, "num_subchannels"),
    )
    qs = parser["qos"]
    qos = QosConfig(
        min_rx_psd=dbm_per_hz_to_w(qs.getfloat("min_rx_psd_dbm_hz")),
        coherence_gap_db=qs.getfloat("coherence_gap_db"),
        min_cluster_avg_rate=qs.getfloat("min_cluster_avg_rate_bps"),
    )
    cl = parser["clustering"]
    ex = parser["experiment"]
    sweep_values = tuple(float(v) for v in
                         ex.get("sweep_values").split(",") if v.strip())
    output = ex.get("output").strip() or None
    return ExperimentConfig(
        scenario=scenario, params=params, band=band, hyper=hyper, qos=qos,
        clustering=cl.get("mode").strip(),
        num_clusters=_getint(cl, "num_clusters"),
        sweep=ex.get("sweep").strip(), sweep_values=sweep_values,
        precoder=ex.get("precoder").strip(),
        allocator=ex.get("allocator").strip(),
        trials=_getint(ex, "trials"),
        base_seed=_getint(ex, "base_seed"),
        output=output, workers=_getint(ex, "workers"),
    )
