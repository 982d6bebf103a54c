"""INI configuration: defaults, file loading, and dotted-key overrides,
parsed into the one configuration type, ``harness.ExperimentConfig``.

One file carries every knob, grouped into sections that mirror the package
modules.  Unknown sections or keys are hard errors so typos cannot silently
fall back to defaults.  Power densities are written in dBm/Hz in the file
and converted to W/Hz here.
"""

from __future__ import annotations

import configparser
import math

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


# The INI key of each field whose range a configuration dataclass checks;
# each check's message starts with the name of the one field it checks.
FIELD_KEYS = {
    "area_side": "scenario.area_side_m",
    "num_aps": "scenario.num_aps",
    "num_ues": "scenario.num_ues",
    "elev_diff_range[0]": "scenario.elev_diff_min_m",
    "elev_diff_range[1]": "scenario.elev_diff_max_m",
    "total_power": "scenario.total_power_w",
    "total_bandwidth": "scenario.total_bandwidth_hz",
    "noise_psd": "scenario.noise_psd_dbm_hz",
    "radiation_efficiency": "antenna.radiation_efficiency",
    "aperture_length": "antenna.aperture_length_m",
    "attenuation": "antenna.attenuation_per_m",
    "cutoff_frequency": "antenna.cutoff_frequency_hz",
    "num_samples": "ce.num_samples",
    "num_elites": "ce.num_elites",
    "max_iterations": "ce.max_iterations",
    "max_components": "ce.max_components",
    "smoothing": "ce.smoothing",
    "grid_step": "ce.grid_step_hz",
    "num_subchannels": "ce.num_subchannels",
    "min_rx_psd": "qos.min_rx_psd_dbm_hz",
    "coherence_gap_db": "qos.coherence_gap_db",
    "min_cluster_avg_rate": "qos.min_cluster_avg_rate_bps",
    "sweep_values": "experiment.sweep_values",
    "trials": "experiment.trials",
    "workers": "experiment.workers",
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


def _number(text: str, name: str) -> float:
    """The value ``text`` of the key ``name`` as a finite float.  A value
    that does not parse, or is NaN or infinite, is rejected by name when
    the configuration loads, not deep inside a trial."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise ValueError(f"{name} must be a finite number, got {text!r}")


def _getfloat(section: configparser.SectionProxy, key: str) -> float:
    return _number(section.get(key), f"{section.name}.{key}")


def _getdbm(section: configparser.SectionProxy, key: str) -> float:
    """A power density key, written in dBm/Hz, in W/Hz; a value too large
    for a float in W/Hz is rejected by name."""
    try:
        return dbm_per_hz_to_w(_getfloat(section, key))
    except OverflowError:
        raise ValueError(f"{section.name}.{key} is too large in W/Hz, "
                         f"got {section.get(key)} dBm/Hz") from None


def _getint(section: configparser.SectionProxy, key: str) -> int:
    """An integer key, which may be spelled as a float such as ``1e3``; a
    value with a fractional part is rejected by name, not truncated."""
    value = _getfloat(section, key)
    if not value.is_integer():
        raise ValueError(f"{section.name}.{key} must be an integer, "
                         f"got {section.get(key)}")
    return int(value)


def apply_overrides(parser: configparser.ConfigParser, overrides) -> None:
    """Apply ``section.key=value`` strings on top of the parsed file."""
    for item in overrides:
        head, sep, value = item.partition("=")
        section, dot, key = head.strip().partition(".")
        if not (sep and dot):
            raise ValueError(f"override {item!r} is not section.key=value")
        section, key = section.strip(), key.strip()
        if section not in DEFAULTS or key not in DEFAULTS[section]:
            raise ValueError(f"override targets unknown key {section}.{key}")
        parser.set(section, key, value.strip())


def load_config(path: str | None = None, overrides=()) -> ExperimentConfig:
    """Defaults, then the optional INI file, then overrides; the returned
    ExperimentConfig validates itself.  Its scenario template takes the
    geometry seed ``experiment.base_seed``, trial 0's.  A dataclass range
    check that fails is re-raised as ``section.key: <its message>``, the
    key ``FIELD_KEYS`` gives the field its message names."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(DEFAULTS)
    if path is not None:
        loaded = configparser.ConfigParser(interpolation=None)
        with open(path, encoding="utf-8") as fh:
            try:
                loaded.read_file(fh)
            except configparser.Error as exc:
                raise ValueError(f"{path}: malformed INI: {exc}") from exc
        _reject_unknown(loaded, path)
        parser.read_dict({s: dict(loaded.items(s)) for s in loaded.sections()})
    apply_overrides(parser, overrides)
    try:
        return _build(parser)
    except ValueError as exc:
        key = FIELD_KEYS.get(str(exc).partition(" ")[0])
        if key is None:
            raise
        raise ValueError(f"{key}: {exc}") from exc


def _build(parser: configparser.ConfigParser) -> ExperimentConfig:
    """The ExperimentConfig of the parsed defaults, file and overrides."""
    ex = parser["experiment"]
    sc = parser["scenario"]
    scenario = ScenarioConfig(
        area_side=_getfloat(sc, "area_side_m"),
        num_aps=_getint(sc, "num_aps"),
        num_ues=_getint(sc, "num_ues"),
        elev_diff_range=(_getfloat(sc, "elev_diff_min_m"),
                         _getfloat(sc, "elev_diff_max_m")),
        total_power=_getfloat(sc, "total_power_w"),
        total_bandwidth=_getfloat(sc, "total_bandwidth_hz"),
        noise_psd=_getdbm(sc, "noise_psd_dbm_hz"),
        seed=_getint(ex, "base_seed"),
    )
    an = parser["antenna"]
    params = AntennaParams(
        radiation_efficiency=_getfloat(an, "radiation_efficiency"),
        aperture_length=_getfloat(an, "aperture_length_m"),
        attenuation=_getfloat(an, "attenuation_per_m"),
        cutoff_frequency=_getfloat(an, "cutoff_frequency_hz"),
    )
    band = (params.cutoff_frequency, _getfloat(an, "band_upper_hz"))
    if band[1] <= band[0]:
        raise ValueError("antenna.band_upper_hz must exceed "
                         "antenna.cutoff_frequency_hz")
    ce = parser["ce"]
    hyper = CeHyperparams(
        num_samples=_getint(ce, "num_samples"),
        num_elites=_getint(ce, "num_elites"),
        max_iterations=_getint(ce, "max_iterations"),
        max_components=_getint(ce, "max_components"),
        smoothing=_getfloat(ce, "smoothing"),
        grid_step=_getfloat(ce, "grid_step_hz"),
        num_subchannels=_getint(ce, "num_subchannels"),
    )
    qs = parser["qos"]
    qos = QosConfig(
        min_rx_psd=_getdbm(qs, "min_rx_psd_dbm_hz"),
        coherence_gap_db=_getfloat(qs, "coherence_gap_db"),
        min_cluster_avg_rate=_getfloat(qs, "min_cluster_avg_rate_bps"),
    )
    cl = parser["clustering"]
    sweep_values = tuple(_number(v, "experiment.sweep_values") for v in
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
        base_seed=scenario.seed,
        output=output, workers=_getint(ex, "workers"),
    )
