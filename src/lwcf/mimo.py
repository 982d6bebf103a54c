"""Downlink channel construction, precoding and rate evaluation.

The propagation model is deterministic line-of-sight: free-space amplitude
with the aperture gain folded in as a per-link amplitude factor.  Precoders
follow the row-vector convention of the channel matrix, i.e. the effective
gain from the precoding column w_j to UE k is the plain (unconjugated)
product of channel row k with w_j.  Maximum ratio transmission therefore
conjugates the channel, and zero forcing right-inverts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antenna import SPEED_OF_LIGHT, AntennaParams, gain
from .scenario import Scenario, subscenario

MAX_ZF_CONDITION = 1e12
# (frequency, UE, AP) points per stacked evaluation: bounds the temporaries
STACK_POINTS = 2 ** 13

PRECODER_METHODS = ("mrt", "zf")


class SingularChannel(Exception):
    """Channel Gram matrix too ill conditioned (or K > M) for zero forcing."""


@dataclass(frozen=True)
class ChannelMatrix:
    entries: np.ndarray   # (K, M) complex
    frequency: float      # Hz

    def __post_init__(self):
        self.entries.flags.writeable = False


@dataclass(frozen=True)
class PrecodingMatrix:
    columns: np.ndarray   # (M, K) complex, unit-norm columns
    method: str

    def __post_init__(self):
        self.columns.flags.writeable = False


def freespace_amplitude(frequency, distance):
    """Magnitude of the free-space propagation coefficient c / (4 pi f d)."""
    return SPEED_OF_LIGHT / (4.0 * np.pi * np.asarray(frequency, float)
                             * np.asarray(distance, float))


def _chunks(scenario: Scenario, num_freqs: int):
    """Slices of at most ``STACK_POINTS`` points of a frequency stack."""
    step = max(1, STACK_POINTS // max(scenario.distances.size, 1))
    return (slice(i, i + step) for i in range(0, num_freqs, step))


def build_channels(scenario: Scenario, params: AntennaParams,
                   frequencies) -> np.ndarray:
    """Effective channels (F, K, M) at the 1-D ``frequencies``: aperture
    gain times free-space LoS.  Every element is computed from its own
    frequency and link alone, so ``h[n]`` and the C-contiguous slice
    ``h[np.ix_(np.arange(F), ues, aps)]`` equal a lone frequency's and a
    sub-drop's channels bit for bit (see ``precoder_rows`` on layouts)."""
    f = np.asarray(frequencies, dtype=float)
    h = np.empty((f.size, *scenario.distances.shape), dtype=complex)
    for part in _chunks(scenario, f.size):
        fp = f[part, None, None]
        amp = np.sqrt(gain(params, fp, scenario.angles))
        amp *= freespace_amplitude(fp, scenario.distances)
        h[part] = np.exp(-2j * np.pi * fp * scenario.distances
                         / SPEED_OF_LIGHT) * amp
    return h


def build_channel(scenario: Scenario, params: AntennaParams,
                  frequency: float) -> ChannelMatrix:
    """Effective channel at one frequency: one slice of ``build_channels``."""
    return ChannelMatrix(build_channels(scenario, params, [frequency])[0],
                         float(frequency))


def require_zf_shape(num_ues: int, num_aps: int) -> None:
    """Raise SingularChannel unless zero forcing can null K UEs with M APs,
    which takes K <= M whatever the channel."""
    if num_ues > num_aps:
        raise SingularChannel(
            f"the zf precoder failed: zero forcing needs num_ues <= num_aps, "
            f"got K={num_ues} UEs and M={num_aps} APs")


def precoder_rows(h: np.ndarray, method: str,
                  flag_collapse: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm 'mrt' or 'zf' precoders of a stack of channels (N, K, M).

    Returns ``(rows, failed)``.  ``rows[n]`` is the transpose of the
    precoding columns of ``h[n]``: row k steers UE k.  ``failed[n]`` marks a
    zero-forcing slice whose Gram condition number exceeds
    ``MAX_ZF_CONDITION`` (or is not finite), or whose precoding column
    collapsed to zero; the rows of a failed slice are meaningless.  Raises
    SingularChannel for zero forcing with more UEs than APs, and when a
    maximum-ratio column collapses, unless ``flag_collapse`` is set: then
    that slice is flagged instead.  This is the one zero-forcing rule:
    ``precode`` is its one-slice case.  Each slice goes through the same
    per-matrix BLAS/LAPACK calls and memory layouts as a lone channel, so a
    stacked slice and a lone channel give the same bits if ``h`` is
    C-contiguous (the transposed layout of ``h[:, ues][:, :, aps]`` sums the
    row norms in another order).
    """
    if method not in PRECODER_METHODS:
        raise ValueError(f"unknown precoding method {method!r}")
    k, m = h.shape[-2:]
    rows = h.conj()
    if method == "mrt":
        failed = np.zeros(h.shape[0], dtype=bool)
    else:
        require_zf_shape(k, m)
        gram = h @ rows.swapaxes(-1, -2)
        # a condition number that is NaN or infinite fails too
        failed = ~(np.linalg.cond(gram) <= MAX_ZF_CONDITION)
        # F = H^H Gram^{-1}  via  Gram^T F^T = conj(H), solved into the rows
        if failed.any():
            ok = ~failed
            rows[ok] = np.linalg.solve(gram[ok].swapaxes(-1, -2), rows[ok])
        else:
            rows = np.linalg.solve(gram.swapaxes(-1, -2), rows)
    norms = np.linalg.norm(rows, axis=-1)
    collapsed = norms < 1e-300
    if collapsed.any():
        if method == "mrt" and not flag_collapse:
            raise SingularChannel("precoding column collapsed to zero")
        collapsed = collapsed.any(axis=-1)
        failed |= collapsed
        norms[collapsed] = 1.0
    rows /= norms[..., None]
    return rows, failed


def precode(channel: ChannelMatrix, method: str) -> PrecodingMatrix:
    """Unit-norm precoding columns for 'mrt' or 'zf'.

    Zero forcing solves against the Gram matrix rather than forming an
    explicit inverse, and rejects channels with condition number above
    ``MAX_ZF_CONDITION``, more UEs than APs, or a collapsed column (see
    ``precoder_rows``).
    """
    rows, failed = precoder_rows(channel.entries[None], method)
    if failed[0]:
        raise SingularChannel(
            f"zero forcing failed: Gram condition above {MAX_ZF_CONDITION:g} "
            "or a precoding column collapsed to zero")
    return PrecodingMatrix(rows[0].T, method)


def sinr_rows(h: np.ndarray, rows: np.ndarray, tx_psd: np.ndarray,
              noise_psd: float) -> np.ndarray:
    """Per-UE SINR (..., K) of channels h (..., K, M) under the precoder
    rows of ``precoder_rows`` (..., K, M); leading axes are a stack."""
    cross = h @ rows.swapaxes(-1, -2)                   # (..., K, K)
    power = np.abs(cross) ** 2
    signal = tx_psd * np.diagonal(power, axis1=-2, axis2=-1)
    interference = power @ tx_psd - signal
    return signal / (interference + noise_psd)


def fallback_sinrs(h: np.ndarray, method: str, tx_psd: np.ndarray,
                   noise_psd: float) -> np.ndarray:
    """Per-UE SINR (N, S) of channels (N, S, Mc) under the one ZF -> MRT
    fallback rule: the whole stack takes maximum ratio when zero forcing has
    more UEs than APs, a slice ``precoder_rows`` flags takes it alone.  A
    collapsed maximum-ratio column raises SingularChannel."""
    try:
        rows, failed = precoder_rows(h, method)
    except SingularChannel:
        rows, failed = precoder_rows(h, "mrt")
    if failed.any():
        rows[failed] = precoder_rows(h[failed], "mrt")[0]
    return sinr_rows(h, rows, tx_psd, noise_psd)


def sinr(channel: ChannelMatrix, precoder: PrecodingMatrix,
         tx_psd: np.ndarray, noise_psd: float) -> np.ndarray:
    """Per-UE SINR for the given channel/precoder pair."""
    return sinr_rows(channel.entries, precoder.columns.T, tx_psd, noise_psd)


def received_strength_psd(scenario: Scenario, params: AntennaParams,
                          frequency, envelope: bool = False) -> np.ndarray:
    """Per-UE received signal strength PSD in W/Hz.

    Incoherent sum of the per-AP contributions q_k * G(f, theta) * |h|^2,
    which equals the precoded received PSD under maximum ratio transmission.
    This is the quantity the access threshold and the coherence-gap
    constraint act on; it is independent of the precoder, so subchannel
    geometry is a property of the radio environment alone.  (The
    zero-forcing precoded PSD fluctuates on a MHz scale through the Gram
    inverse, which would zero out every coherence-limited bandwidth.)

    ``frequency`` may be a scalar (returns shape (K,)) or a 1-D array
    (returns shape (F, K)); a scalar is the one-frequency case of the
    array formula, so it gets the bits of its row in any array.  With
    ``envelope`` set every gain is replaced by its sin-free envelope
    (``antenna.gain``); the weights of the AP sum are positive, so the
    result brackets the PSD as env <= psd <= rho env UE by UE, with
    rho = ``antenna.envelope_ratio(params)``.
    """
    f = np.asarray(frequency, dtype=float)
    fs = np.atleast_1d(f)
    psd = np.empty((fs.size, scenario.num_ues))
    weights = scenario.distances ** -2.0
    for part in _chunks(scenario, fs.size):
        g = gain(params, fs[part, None, None], scenario.angles, envelope)
        # |h|^2 = (c / 4 pi f)^2 d^-2: the frequency factor leaves the AP sum
        g *= weights
        free2 = (SPEED_OF_LIGHT / (4.0 * np.pi * fs[part])) ** 2
        psd[part] = (scenario.tx_psd * free2[:, None]) * np.sum(g, axis=2)
    return psd[0] if f.ndim == 0 else psd


def rate_densities(scenario: Scenario, params: AntennaParams, frequencies,
                   method: str) -> tuple[np.ndarray, np.ndarray]:
    """Sum spectral efficiency over UEs at each of the 1-D ``frequencies``,
    bit/s/Hz, in (F, K, M) stacks of at most ``STACK_POINTS`` points
    through ``build_channels``, ``precoder_rows`` and ``sinr_rows``; each
    value equals a lone frequency's bit for bit.  Returns ``(densities,
    failed)``: ``failed`` marks a frequency where the precoder failed, a
    collapsed maximum-ratio column included; its density is meaningless."""
    f = np.asarray(frequencies, dtype=float)
    density = np.empty(f.size)
    failed = np.empty(f.size, dtype=bool)
    for part in _chunks(scenario, f.size):
        h = build_channels(scenario, params, f[part])
        rows, failed[part] = precoder_rows(h, method, flag_collapse=True)
        gamma = sinr_rows(h, rows, scenario.tx_psd, scenario.noise_psd)
        density[part] = np.sum(np.log2(1.0 + gamma), axis=-1)
    return density, failed


def rate_density(scenario: Scenario, params: AntennaParams, frequency: float,
                 method: str) -> float:
    """Sum spectral efficiency over UEs at one frequency, bit/s/Hz: the
    one-frequency case of ``rate_densities``.  Raises SingularChannel
    where the precoder fails."""
    density, failed = rate_densities(scenario, params, [frequency], method)
    if failed[0]:
        raise SingularChannel(f"the {method} precoder failed at "
                              f"{frequency:g} Hz")
    return float(density[0])


def cluster_subchannel_reward(cluster_aps, cluster_ues, center: float,
                              width: float, scenario: Scenario,
                              params: AntennaParams, method: str) -> float:
    """Rate of one subchannel owned exclusively by one cluster, so free of
    interference: width times ``rate_density`` on the cluster's
    sub-scenario.  Propagates SingularChannel.  The tests' reference for
    ``cluster_alloc.greedy_assign``; ``cluster_alloc`` binds it only
    because the benchmark's tracer names it there."""
    aps = sorted(int(a) for a in cluster_aps)
    ues = sorted(int(u) for u in cluster_ues)
    if width <= 0.0 or not ues:
        return 0.0
    return width * rate_density(subscenario(scenario, aps, ues), params,
                                center, method)
