"""Downlink channel construction, precoding and rate evaluation.

The propagation model is deterministic line-of-sight: free-space amplitude
with the aperture gain folded in as a per-link amplitude factor.  Precoders
follow the row-vector convention of the channel matrix, i.e. the effective
gain from the precoding column w_j to UE k is the plain (unconjugated)
product of channel row k with w_j.  Maximum ratio transmission therefore
conjugates the channel, and zero forcing right-inverts it.
"""

from __future__ import annotations

import numpy as np

from .antenna import SPEED_OF_LIGHT, AntennaParams, gain
from .scenario import Scenario, subscenario

MAX_ZF_CONDITION = 1e12
# Share of MAX_ZF_CONDITION up to which the trace bound certifies a Gram
# (see zf_certified).  The bound tr(G) tr(G^-1) overshoots cond(G) by at
# most S^2 (S UEs), and the inverse and the SVD round with relative error
# about S u cond (u the unit roundoff), 2e-6 at S = 20 and cond = 1e9: a
# bound certified three decades below the threshold cannot hide a
# condition number above it.
ZF_CERTIFICATE_SLACK = 1e-3
# (frequency, UE, AP) points per stacked evaluation: bounds the temporaries
STACK_POINTS = 2 ** 13

PRECODER_METHODS = ("mrt", "zf")


class SingularChannel(Exception):
    """Channel Gram matrix too ill conditioned (or K > M) for zero forcing."""


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
                  frequency: float) -> np.ndarray:
    """Effective channel (K, M) at one frequency: one slice of
    ``build_channels``."""
    return build_channels(scenario, params, [frequency])[0]


def require_zf_shape(num_ues: int, num_aps: int) -> None:
    """Raise SingularChannel unless zero forcing can null K UEs with M APs,
    which takes K <= M whatever the channel."""
    if num_ues > num_aps:
        raise SingularChannel(
            f"the zf precoder failed: zero forcing needs num_ues <= num_aps, "
            f"got K={num_ues} UEs and M={num_aps} APs")


def zf_certified(gram: np.ndarray, inverse_diagonal: np.ndarray) -> np.ndarray:
    """The one trace certificate of zero forcing, per slice of a stack of
    Grams (N, S, S) given the diagonals (N, S) of their inverses: True
    where every diagonal entry is finite and positive and
    tr(Gram) tr(Gram^-1) <= ``MAX_ZF_CONDITION * ZF_CERTIFICATE_SLACK``.
    The diagonal of a true inverse of a Gram is positive, so a negative,
    zero or NaN entry marks an inverse that cannot be trusted (LAPACK
    returns one without complaint for a rank-deficient Gram that rounding
    made non-singular).  ``MAX_ZF_CONDITION`` is read at call time."""
    trace = gram.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1)
    with np.errstate(invalid="ignore"):       # inf - inf in a garbage sum
        bound = trace * inverse_diagonal.sum(axis=-1)
    positive = (inverse_diagonal > 0.0).all(axis=-1)
    return positive & (bound <= MAX_ZF_CONDITION * ZF_CERTIFICATE_SLACK)


def zf_closed_form(gram: np.ndarray, tx_psd: np.ndarray,
                   noise_psd: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing SINRs of a stack of Grams (N, S, S) in closed form:
    with unit-norm columns UE k's SINR is tx_psd[k] / (noise_psd
    [Gram^-1]_kk).  ``tx_psd`` is (S,) or one row per slice (N, S).

    Returns ``(sinrs, certified)``: ``certified[n]`` is ``zf_certified``
    on slice n, and the SINRs of another slice are meaningless.  The stack
    is inverted in one call, each slice as a lone matrix would be; when an
    exactly singular slice makes it raise, each slice is inverted alone
    and a singular one gets a NaN diagonal, which the certificate
    rejects."""
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        inverse = np.full_like(gram, np.nan)
        for n, slice_gram in enumerate(gram):
            try:
                inverse[n] = np.linalg.inv(slice_gram)
            except np.linalg.LinAlgError:
                pass
    diagonal = inverse.diagonal(axis1=-2, axis2=-1).real
    with np.errstate(all="ignore"):           # an uncertified garbage entry
        sinrs = tx_psd / (noise_psd * diagonal)
    return sinrs, zf_certified(gram, diagonal)


def precoder_rows(h: np.ndarray, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm 'mrt' or 'zf' precoders of a stack of channels (N, K, M).

    Returns ``(rows, failed)``.  ``rows[n]`` is the transpose of the
    precoding columns of ``h[n]``: row k steers UE k.  ``failed[n]`` marks a
    zero-forcing slice whose Gram condition number exceeds
    ``MAX_ZF_CONDITION`` (or is not finite), or a slice of either method
    whose precoding column collapsed to zero; the rows of a failed slice
    are meaningless.  Raises SingularChannel only for zero forcing with
    more UEs than APs (``require_zf_shape``).  Zero forcing takes the
    exact SVD condition number of every slice and solves the passing ones
    against their Grams; ``precode`` is the one-slice case, and
    ``stack_sinrs`` sends here only the slices the closed form does not
    certify.  Each slice goes through the same per-matrix BLAS/LAPACK
    calls and memory layouts as a lone channel, so a stacked slice and a
    lone channel give the same bits if ``h`` is C-contiguous (the
    transposed layout of ``h[:, ues][:, :, aps]`` sums the row norms in
    another order).  ``MAX_ZF_CONDITION`` is read at call time.
    """
    if method not in PRECODER_METHODS:
        raise ValueError(f"unknown precoding method {method!r}")
    k, m = h.shape[-2:]
    rows = h.conj()
    failed = np.zeros(h.shape[0], dtype=bool)
    if method == "zf":
        require_zf_shape(k, m)
        gram = h @ rows.swapaxes(-1, -2)
        # a condition number that is NaN or infinite fails the test; a
        # failed slice keeps its finite conjugate rows
        failed = ~(np.linalg.cond(gram) <= MAX_ZF_CONDITION)
        ok = ~failed
        # F = H^H Gram^{-1}  via  Gram^T F^T = conj(H), solved into the rows
        rows[ok] = np.linalg.solve(gram[ok].swapaxes(-1, -2), rows[ok])
    # the squared row norms summed as np.linalg.norm sums them, so their
    # square roots are its bits
    norms = np.sqrt(np.add.reduce((rows.conj() * rows).real, axis=-1))
    collapsed = (norms < 1e-300).any(axis=-1)
    if collapsed.any():
        failed |= collapsed
        norms[collapsed] = 1.0
    rows /= norms[..., None]
    return rows, failed


def precode(h: np.ndarray, method: str) -> np.ndarray:
    """Unit-norm precoding columns (M, K) of the channel ``h`` (K, M) for
    'mrt' or 'zf': the one-slice case of ``precoder_rows``.

    Zero forcing solves against the Gram matrix rather than forming an
    explicit inverse, and rejects channels with an SVD condition number
    above ``MAX_ZF_CONDITION`` or more UEs than APs; either method rejects
    a collapsed column.
    """
    rows, failed = precoder_rows(h[None], method)
    if failed[0]:
        if method == "mrt":
            raise SingularChannel("precoding column collapsed to zero")
        raise SingularChannel(
            f"zero forcing failed: Gram condition above {MAX_ZF_CONDITION:g} "
            "or a precoding column collapsed to zero")
    return rows[0].T


def sinr_rows(h: np.ndarray, rows: np.ndarray, tx_psd: np.ndarray,
              noise_psd: float) -> np.ndarray:
    """Per-UE SINR (..., K) of channels h (..., K, M) under the precoder
    rows of ``precoder_rows`` (..., K, M); leading axes are a stack."""
    cross = h @ rows.swapaxes(-1, -2)                   # (..., K, K)
    power = np.abs(cross) ** 2
    signal = tx_psd * np.diagonal(power, axis1=-2, axis2=-1)
    interference = power @ tx_psd - signal
    return signal / (interference + noise_psd)


def stack_sinrs(h: np.ndarray, method: str, tx_psd: np.ndarray,
                noise_psd: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-UE SINR (N, K) of channels (N, K, M) under 'mrt' or 'zf': the
    one SINR rule of a stack.  Zero forcing scores every slice that
    ``zf_closed_form`` certifies in closed form; the other slices, and
    every slice under maximum ratio, are precoded by ``precoder_rows`` and
    rated by ``sinr_rows``.  Returns ``(sinrs, failed)`` with the flags of
    ``precoder_rows`` (a certified slice never fails); the SINRs of a
    failed slice are meaningless.  Raises SingularChannel only for zero
    forcing with more UEs than APs."""
    if method == "zf":
        require_zf_shape(*h.shape[-2:])
        sinrs, done = zf_closed_form(h @ h.conj().swapaxes(-1, -2), tx_psd,
                                     noise_psd)
    else:
        sinrs, done = np.empty(h.shape[:-1]), np.zeros(h.shape[0], dtype=bool)
    rest = ~done
    failed = np.zeros(h.shape[0], dtype=bool)
    if rest.any():
        rows, failed[rest] = precoder_rows(h[rest], method)
        sinrs[rest] = sinr_rows(h[rest], rows, tx_psd, noise_psd)
    return sinrs, failed


def fallback_sinrs(h: np.ndarray, method: str, tx_psd: np.ndarray,
                   noise_psd: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-UE SINR (N, S) of channels (N, S, Mc) under the one ZF -> MRT
    fallback rule on ``stack_sinrs``: the whole stack takes maximum ratio
    when zero forcing has more UEs than APs, a slice that zero forcing
    fails takes it alone.  Returns ``(sinrs, collapsed)``:
    ``collapsed[n]`` marks a slice whose maximum-ratio column collapsed
    (its SINRs are meaningless), and the other slices keep their bits."""
    try:
        sinrs, failed = stack_sinrs(h, method, tx_psd, noise_psd)
    except SingularChannel:
        sinrs, failed = stack_sinrs(h, "mrt", tx_psd, noise_psd)
    else:
        if method == "zf" and failed.any():
            # failed now marks the slices whose maximum ratio collapsed
            sinrs[failed], failed[failed] = stack_sinrs(h[failed], "mrt",
                                                        tx_psd, noise_psd)
    return sinrs, failed


def sinr(h: np.ndarray, columns: np.ndarray, tx_psd: np.ndarray,
         noise_psd: float) -> np.ndarray:
    """Per-UE SINR of the channel ``h`` (K, M) under the precoding
    ``columns`` (M, K)."""
    return sinr_rows(h, columns.T, tx_psd, noise_psd)


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
    through ``build_channels`` and ``stack_sinrs``; each value equals a
    lone frequency's bit for bit.  Returns ``(densities,
    failed)``: ``failed`` marks a frequency where the precoder failed, a
    collapsed maximum-ratio column included; its density is meaningless."""
    f = np.asarray(frequencies, dtype=float)
    density = np.empty(f.size)
    failed = np.empty(f.size, dtype=bool)
    for part in _chunks(scenario, f.size):
        h = build_channels(scenario, params, f[part])
        gamma, failed[part] = stack_sinrs(h, method, scenario.tx_psd,
                                          scenario.noise_psd)
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
