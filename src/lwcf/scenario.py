"""Network geometry and power setup for the cell-free downlink.

APs and UEs are dropped uniformly in a square service area.  Each AP sits a
few metres above the UE plane (one height draw per AP), and the aperture
elevation angle of every AP-UE link is drawn independently of the planar
geometry, which models arbitrary slot orientations.

Randomness is organised in per-entity substreams of one master seed, so
growing the number of APs or UEs extends the draw sequence without
perturbing entities that already exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScenarioConfig:
    area_side: float                       # m
    num_aps: int
    num_ues: int
    elev_diff_range: tuple[float, float]   # m, uniform height offset per AP
    total_power: float                     # W, shared transmit budget
    total_bandwidth: float                 # Hz, spectrum budget
    noise_psd: float                       # W/Hz
    seed: int

    def __post_init__(self):
        if self.area_side <= 0.0:
            raise ValueError("area_side must be positive")
        if self.num_aps < 1 or self.num_ues < 1:
            raise ValueError("need at least one AP and one UE")
        lo, hi = self.elev_diff_range
        if not 0.0 < lo <= hi:
            raise ValueError("elev_diff_range must satisfy 0 < low <= high")
        if self.total_power <= 0.0 or self.total_bandwidth <= 0.0:
            raise ValueError("total_power and total_bandwidth must be positive")
        if self.noise_psd <= 0.0:
            raise ValueError("noise_psd must be positive")


@dataclass(frozen=True)
class Scenario:
    """Immutable realisation of one network drop."""

    ap_positions: np.ndarray   # (M, 2) m
    ue_positions: np.ndarray   # (K, 2) m
    elev_diff: np.ndarray      # (K, M) m, height offset of each link
    angles: np.ndarray         # (K, M) rad, aperture elevation per link
    distances: np.ndarray      # (K, M) m, 3-D link distance
    tx_psd: np.ndarray         # (K,) W/Hz, per-UE transmit PSD
    noise_psd: float           # W/Hz

    def __post_init__(self):
        for name in ("ap_positions", "ue_positions", "elev_diff",
                     "angles", "distances", "tx_psd"):
            getattr(self, name).flags.writeable = False

    @property
    def num_aps(self) -> int:
        return self.ap_positions.shape[0]

    @property
    def num_ues(self) -> int:
        return self.ue_positions.shape[0]


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Draw one network realisation from the per-entity substreams."""
    m, k = config.num_aps, config.num_ues
    side = config.area_side
    lo, hi = config.elev_diff_range

    # independent substreams: AP positions, AP heights, UE positions, and
    # one angle stream per UE (prefix-stable when the AP count grows)
    ap_positions = _stream(config.seed, 0).uniform(0.0, side, size=(m, 2))
    heights = _stream(config.seed, 1).uniform(lo, hi, size=m)
    ue_positions = _stream(config.seed, 2).uniform(0.0, side, size=(k, 2))
    angles = np.empty((k, m))
    for ue in range(k):
        rng = _stream(config.seed, 3, ue)
        row = rng.uniform(0.0, np.pi / 2.0, size=m)
        while np.any(row == 0.0):        # open interval: prob ~0 but draws must stay valid
            redo = row == 0.0
            row[redo] = rng.uniform(0.0, np.pi / 2.0, size=int(redo.sum()))
        angles[ue] = row

    elev_diff = np.broadcast_to(heights, (k, m)).copy()
    planar = np.linalg.norm(
        ue_positions[:, None, :] - ap_positions[None, :, :], axis=2
    )
    distances = np.hypot(planar, elev_diff)
    tx_psd = np.full(k, config.total_power / config.total_bandwidth)

    return Scenario(
        ap_positions=ap_positions,
        ue_positions=ue_positions,
        elev_diff=elev_diff,
        angles=angles,
        distances=distances,
        tx_psd=tx_psd,
        noise_psd=config.noise_psd,
    )


def subscenario(scenario: Scenario, ap_idx, ue_idx) -> Scenario:
    """View of a scenario restricted to the given AP and UE index sets.

    Used for intra-cluster channel evaluations; transmit PSDs carry over.
    """
    ap_idx = np.asarray(ap_idx, dtype=int)
    ue_idx = np.asarray(ue_idx, dtype=int)
    return Scenario(
        ap_positions=scenario.ap_positions[ap_idx].copy(),
        ue_positions=scenario.ue_positions[ue_idx].copy(),
        elev_diff=scenario.elev_diff[np.ix_(ue_idx, ap_idx)].copy(),
        angles=scenario.angles[np.ix_(ue_idx, ap_idx)].copy(),
        distances=scenario.distances[np.ix_(ue_idx, ap_idx)].copy(),
        tx_psd=scenario.tx_psd[ue_idx].copy(),
        noise_psd=scenario.noise_psd,
    )
