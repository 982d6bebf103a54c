"""Scalar reference implementations for the tests.

``link_rss`` and ``link_distance`` evaluate one AP-UE link at a time; the
tests check the vectorised ``clustering.rss_matrix`` and the distances of
``scenario.generate_scenario`` against them.  ``plan_rate`` totals a
subchannel list one ``rate_density`` call at a time.  ``edges_ok_exact``
is the edge predicate of ``cegmm._edges_ok`` decided from the exact PSDs
alone, without the envelope certificates.  ``precode_2d`` and ``sinr_2d``
precode and rate one (K, M) channel matrix at a time, and
``per_ap_se_per_ue`` scores a cluster with one channel build, precoder and
SINR per served UE; the stacked ``mimo.precoder_rows``/``sinr_rows`` and
``clustering.per_ap_spectral_efficiency`` must match them bit for bit.
"""

import numpy as np

import lwcf.mimo
from lwcf.antenna import gain, peak_frequency
from lwcf.clustering import _eval_frequency, rss_matrix
from lwcf.mimo import (PrecodingMatrix, SingularChannel, build_channel,
                       rate_density, received_strength_psd)
from lwcf.scenario import subscenario


def link_rss(tx_psd, params, angle, channel_power, band_upper):
    """Received signal strength of one AP-UE link at its best in-band frequency.

    ``channel_power`` is the squared magnitude of the propagation coefficient
    evaluated at the same (clamped) peak frequency; the caller supplies it so
    this function stays free of any path-loss assumption.
    """
    if tx_psd < 0.0 or channel_power < 0.0:
        raise ValueError("tx_psd and channel_power must be nonnegative")
    f_star = peak_frequency(params.cutoff_frequency, angle)
    # keep strictly above cutoff so the gain stays defined at broadside
    f_eval = min(max(f_star, params.cutoff_frequency * (1.0 + 1e-9)), band_upper)
    return tx_psd * gain(params, f_eval, angle) * channel_power


def link_distance(ap_position, ue_position, elev_diff):
    """3-D distance between an AP and a UE separated by ``elev_diff`` in height."""
    planar = np.asarray(ap_position, float) - np.asarray(ue_position, float)
    return float(np.hypot(np.linalg.norm(planar), elev_diff))


def plan_rate(subchannels, scenario, params, method):
    """Total rate of a list of (center, width) subchannels, bit/s.

    The channel and precoder are rebuilt at every subchannel center; widths
    of zero contribute nothing.
    """
    total = 0.0
    for center, width in subchannels:
        if width > 0.0:
            total += width * rate_density(scenario, params, center, method)
    return total


def edges_ok_exact(scenario, params, lo, hi, qos):
    """Per interval: every UE's exact received PSD is positive and meets the
    access threshold at both edges, and its edge gap is below the limit."""
    psd_lo = received_strength_psd(scenario, params, lo)
    psd_hi = received_strength_psd(scenario, params, hi)
    ok = (np.all(psd_lo >= qos.min_rx_psd, axis=1)
          & np.all(psd_hi >= qos.min_rx_psd, axis=1)
          & np.all(psd_lo > 0.0, axis=1) & np.all(psd_hi > 0.0, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(10.0 * np.log10(psd_lo) - 10.0 * np.log10(psd_hi))
    return ok & np.all(gap < qos.coherence_gap_db, axis=1)


def precode_2d(channel, method):
    """Unit-norm precoding columns of one channel matrix; raises
    SingularChannel as ``mimo.precode`` does.  ``MAX_ZF_CONDITION`` is read
    from ``lwcf.mimo`` so that monkeypatching it acts here too."""
    if method not in ("mrt", "zf"):
        raise ValueError(f"unknown precoding method {method!r}")
    h = channel.entries
    k, m = h.shape
    if method == "mrt":
        f = h.conj().T
    else:
        if k > m:
            raise SingularChannel("zero forcing needs num_ues <= num_aps")
        gram = h @ h.conj().T
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > lwcf.mimo.MAX_ZF_CONDITION:
            raise SingularChannel(f"channel Gram condition {cond:.3e}")
        f = np.linalg.solve(gram.T, h.conj()).T
    norms = np.linalg.norm(f, axis=0)
    if np.any(norms < 1e-300):
        raise SingularChannel("precoding column collapsed to zero")
    return PrecodingMatrix(f / norms, method)


def sinr_2d(channel, precoder, tx_psd, noise_psd):
    """Per-UE SINR of one channel/precoder pair."""
    cross = channel.entries @ precoder.columns
    power = np.abs(cross) ** 2
    signal = tx_psd * np.diag(power)
    interference = power @ tx_psd - signal
    return signal / (interference + noise_psd)


def per_ap_se_per_ue(cluster, scenario, params, method, band_upper,
                     ue_to_ap=None):
    """Cluster score as ``clustering.per_ap_spectral_efficiency`` defines
    it, one sub-scenario channel build, precoder and SINR per served UE; a
    UE whose zero forcing fails is scored under maximum ratio."""
    members = sorted(int(a) for a in cluster)
    if not members:
        raise ValueError("empty cluster")
    if ue_to_ap is None:
        rss = rss_matrix(scenario, params, band_upper)
        ue_to_ap = np.argmax(rss, axis=1).astype(np.intp)
    member_set = set(members)
    served = [k for k in range(scenario.num_ues) if int(ue_to_ap[k]) in member_set]
    if not served:
        return 0.0
    sub = subscenario(scenario, members, served)
    total = 0.0
    for local_k, global_k in enumerate(served):
        angle = scenario.angles[global_k, ue_to_ap[global_k]]
        f_eval = _eval_frequency(params, angle, band_upper)
        channel = build_channel(sub, params, f_eval)
        try:
            prec = precode_2d(channel, method)
        except SingularChannel:
            prec = precode_2d(channel, "mrt")
        gamma = sinr_2d(channel, prec, sub.tx_psd, sub.noise_psd)[local_k]
        total += np.log2(1.0 + gamma)
    return float(total / len(members))
