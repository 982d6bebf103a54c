"""Scalar reference implementations for the tests.

``link_rss`` and ``link_distance`` evaluate one AP-UE link at a time; the
tests check the vectorised ``clustering.rss_matrix`` and the distances of
``scenario.generate_scenario`` against them.  ``plan_rate`` totals a
subchannel list one ``rate_density`` call at a time.  ``precode_2d`` and
``sinr_2d`` precode and rate one (K, M) channel matrix at a time; the
stacked ``mimo.precoder_rows``/``sinr_rows`` must match them bit for bit,
and so must ``mimo.stack_sinrs`` on every slice that its closed form
(``mimo.zf_closed_form``) does not certify; a certified slice keeps the
bits of its lone closed form, within 1e-13 relative of the precoded ones.
``per_ap_se_per_ue`` scores a cluster with one channel build per served UE
and, under zero forcing, one lone inverse of the served block of the Gram
over every UE of the drop, its lower triangle the conjugate of the upper:
the closed-form SINR p_k / (noise [Gram^-1]_kk) where ``mimo.zf_certified``
trusts the inverse, a precoder and SINR (maximum ratio where zero forcing
fails) elsewhere;
``clustering.per_ap_spectral_efficiency`` must match it bit for bit.
``precoded_sinrs`` is ``mimo.fallback_sinrs`` with every slice precoded,
none in closed form.  ``per_ap_se_precoded`` is the scorer before the
closed form, precoding and rating every UE in chunked stacks through
``precoded_sinrs``; the closed-form scores, on one
cluster's Gram or on the sum of two clusters' Grams, stay within 1e-13
relative of it and ``hierarchical_clustering`` picks the same clusters
under either.  ``merge_void_clusters_replay`` and
``hierarchical_merge_replay`` are the merge rules asking a one-tuple
``score`` for one cluster at a time, every pair again each round; the
lock-step ``clustering.merge_void_clusters`` and ``hierarchical_merge``,
which ask for a round's candidates in one call and keep a pair-score
table, must return the same clusters.
``fallback_cluster_reward`` rates one subchannel of one cluster on its own
sub-scenario, retrying under maximum ratio where the precoder fails; the
rewards of ``cluster_alloc.greedy_assign`` must match it bit for bit.
``certified_per_interval`` decides every interval's table certificate on
its own; ``cegmm._EdgeCheck.certified``, which decides each run of equal
cell pairs once, must match it.  ``cell_free_check`` is an edge check with
no usable table cell, so its ``ok`` decides every step by the envelope
PSDs, then the exact ones; a check whose cells certify steps must give
the same widths and plans.  The tests take the exact predicate
``cegmm._edges_ok`` as the oracle of every edge check.
``stepwise_shrink`` shrinks one moved interval half a grid step
at a time, each step decided on its own by ``cegmm._edges_ok``; the
lock-step ``cegmm._revalidate`` must keep the same step.
``resolve_overlaps_scalar`` is ``cegmm.resolve_overlaps`` with one scalar
received-PSD call per interval it compares and ``stepwise_shrink`` for
each moved interval; the batched RSS pricing and the lock-step shrinks
with the edge check's lookups must give the same plans.
``envelope_peak`` is the largest value of a link's gain envelope.
``em_fit_reference`` is EM through the ``np.sum``/``np.max`` wrappers with
a fresh log density per iteration, and ``bic_reference`` recomputes the
log-likelihood; the lean ``cegmm.em_fit`` and the BIC that reuses a
converged fit's log-likelihood must match them bit for bit.
"""

from dataclasses import replace

import numpy as np

import lwcf.mimo
from lwcf.antenna import gain, peak_frequency
from lwcf.cegmm import FREQ_TOL, TABLE_CELL, Gmm, _edge_table, _edges_ok
from lwcf.clustering import SCORE_CHUNK, _eval_frequency, rss_matrix
from lwcf.mimo import (SingularChannel, build_channel,
                       cluster_subchannel_reward, precoder_rows, rate_density,
                       received_strength_psd, sinr_rows, zf_certified)
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


def envelope_peak(params):
    """eta L sinh b / b: the envelope of ``antenna.gain`` at a = 0, which is
    its maximum over frequency for every angle (reached at
    ``antenna.peak_frequency``).  Needs positive attenuation."""
    b = params.attenuation * params.aperture_length / 2.0
    if b == 0.0:
        raise ValueError("the gain envelope needs positive attenuation")
    return float(params.radiation_efficiency * params.aperture_length
                 * np.sinh(b) / b)


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


def precode_2d(h, method):
    """Unit-norm precoding columns (M, K) of one channel matrix (K, M); raises
    SingularChannel as ``mimo.precode`` does.  ``MAX_ZF_CONDITION`` is read
    from ``lwcf.mimo`` so that monkeypatching it acts here too."""
    if method not in ("mrt", "zf"):
        raise ValueError(f"unknown precoding method {method!r}")
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
    return f / norms


def sinr_2d(h, columns, tx_psd, noise_psd):
    """Per-UE SINR of one channel matrix under its precoding columns."""
    cross = h @ columns
    power = np.abs(cross) ** 2
    signal = tx_psd * np.diag(power)
    interference = power @ tx_psd - signal
    return signal / (interference + noise_psd)


def per_ap_se_per_ue(cluster, scenario, params, method, band_upper,
                     ue_to_ap=None):
    """Cluster score as ``clustering.per_ap_spectral_efficiency`` defines
    it, one sub-scenario channel build per served UE.  Under zero forcing
    with no more served UEs than APs a UE whose lone Gram inverse passes
    ``mimo.zf_certified`` is scored in closed form, p_k / (noise
    [Gram^-1]_kk); any other UE is precoded and rated, under maximum ratio
    where its zero forcing fails."""
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
    every = subscenario(scenario, members, range(scenario.num_ues))
    total = 0.0
    for local_k, global_k in enumerate(served):
        angle = scenario.angles[global_k, ue_to_ap[global_k]]
        f_eval = _eval_frequency(params, angle, band_upper)
        channel = build_channel(sub, params, f_eval)
        gamma = None
        if method == "zf" and len(served) <= len(members):
            # the Gram over every UE of the drop, its lower triangle the
            # conjugate of the upper, then its served block
            h = build_channel(every, params, f_eval)
            gram = h @ h.conj().T
            lower = np.tril_indices(len(gram), -1)
            gram[lower] = gram.T[lower].conj()
            gram = gram[np.ix_(served, served)]
            try:
                diagonal = np.linalg.inv(gram).diagonal().real
            except np.linalg.LinAlgError:
                diagonal = np.full(len(served), np.nan)
            if zf_certified(gram[None], diagonal[None])[0]:
                gamma = sub.tx_psd[local_k] / (sub.noise_psd
                                               * diagonal[local_k])
        if gamma is None:
            try:
                prec = precode_2d(channel, method)
            except SingularChannel:
                prec = precode_2d(channel, "mrt")
            gamma = sinr_2d(channel, prec, sub.tx_psd, sub.noise_psd)[local_k]
        total += np.log2(1.0 + gamma)
    return float(total / len(members))


def precoded_sinrs(h, method, tx_psd, noise_psd):
    """``mimo.fallback_sinrs`` with every slice precoded by
    ``mimo.precoder_rows`` and rated by ``mimo.sinr_rows``, none in closed
    form: maximum ratio for the whole stack when zero forcing has more UEs
    than APs, for a slice that zero forcing fails otherwise."""
    try:
        rows, failed = precoder_rows(h, method)
    except SingularChannel:
        rows, failed = precoder_rows(h, "mrt")
    else:
        if method == "zf" and failed.any():
            rows[failed], failed[failed] = precoder_rows(h[failed], "mrt")
    return sinr_rows(h, rows, tx_psd, noise_psd), failed


def per_ap_se_precoded(cluster, scenario, method, ue_to_ap, stack):
    """``clustering.per_ap_spectral_efficiency`` with every UE precoded and
    rated, ``SCORE_CHUNK`` channel slices at a time through
    ``precoded_sinrs``: the interference of zero forcing is computed, not
    taken as zero.  Takes the same arguments, so it can stand in for it in
    the pipeline."""
    members = sorted(int(a) for a in cluster)
    if not members:
        raise ValueError("empty cluster")
    member_set = set(members)
    served = [k for k in range(scenario.num_ues) if int(ue_to_ap[k]) in member_set]
    if not served:
        return 0.0
    rows = np.asarray(served)
    tx_psd = scenario.tx_psd[served]
    own = np.empty(len(served))
    for first in range(0, len(served), SCORE_CHUNK):
        h = stack[np.ix_(rows[first:first + SCORE_CHUNK], rows, members)]
        gammas, collapsed = precoded_sinrs(h, method, tx_psd,
                                           scenario.noise_psd)
        if collapsed.any():
            raise SingularChannel("precoding column collapsed to zero")
        # slice n holds the channels at the frequency of UE first + n
        own[first:first + len(gammas)] = np.diagonal(gammas, offset=first)
    total = np.add.accumulate(np.log2(1.0 + own))[-1]
    return float(total / len(members))


def merge_void_clusters_replay(clusters, ue_to_ap, score):
    """``clustering.merge_void_clusters`` asking ``score`` (a sorted AP
    tuple to its per-AP spectral efficiency) for one candidate at a time."""
    served_aps = set(int(a) for a in ue_to_ap)
    items = [tuple(sorted(int(a) for a in c)) for c in clusters]
    if not any(set(c) & served_aps for c in items):
        return items
    while True:
        void_idx = next((i for i, c in enumerate(items)
                         if not set(c) & served_aps), None)
        if void_idx is None:
            break
        void = items.pop(void_idx)
        scores = [score(tuple(sorted(c + void))) for c in items]
        best = int(np.argmax(scores))
        items[best] = tuple(sorted(items[best] + void))
    return items


def hierarchical_merge_replay(clusters, score):
    """``clustering.hierarchical_merge`` scanning every pair of every round
    in order, asking ``score`` for one tuple at a time: the first strictly
    largest positive gain merges, and a NaN gain fails the comparison."""
    items = [tuple(sorted(int(a) for a in c)) for c in clusters]
    scores = [score(c) for c in items]
    while len(items) > 1:
        best_gain = 0.0
        best_pair = None
        best_merged = None
        best_score = 0.0
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                merged = tuple(sorted(items[i] + items[j]))
                merged_score = score(merged)
                size_i, size_j = len(items[i]), len(items[j])
                joint = ((scores[i] * size_i + scores[j] * size_j)
                         / (size_i + size_j))
                gain_ij = merged_score - joint
                if gain_ij > best_gain:
                    best_gain = gain_ij
                    best_pair = (i, j)
                    best_merged = merged
                    best_score = merged_score
        if best_pair is None:
            break
        i, j = best_pair
        items = [c for z, c in enumerate(items) if z not in (i, j)]
        scores = [s for z, s in enumerate(scores) if z not in (i, j)]
        items.append(best_merged)
        scores.append(best_score)
    items.sort(key=lambda c: c[0])
    return items


def fallback_cluster_reward(cluster_aps, cluster_ues, center, width, scenario,
                            params, method):
    """``cluster_subchannel_reward`` under ``method``, or under maximum
    ratio where that raises SingularChannel; a collapsed maximum-ratio
    column still raises."""
    try:
        return cluster_subchannel_reward(cluster_aps, cluster_ues, center,
                                         width, scenario, params, method)
    except SingularChannel:
        return cluster_subchannel_reward(cluster_aps, cluster_ues, center,
                                         width, scenario, params, "mrt")


def certified_per_interval(check, lo, hi):
    """``_EdgeCheck.certified`` with each interval's two edge cells looked
    up and compared on their own; cells -1 and C (outside the table) both
    index the unusable last row."""
    i = np.searchsorted(check.edges, lo) - 1
    j = np.searchsorted(check.edges, hi) - 1
    up, low = check.upper, check.lower_r
    return ((up[i] < low[j]).all(axis=1) & (up[j] < low[i]).all(axis=1))


def cell_free_check(scenario, params, band, qos):
    """The edge check of (scenario, params, band, qos) with the table of a
    band that ends half a cell above cutoff, below the first cell: it
    certifies no step and interpolates none, so ``ok`` decides every step
    by its envelope and exact tiers."""
    narrow = (band[0], params.cutoff_frequency + TABLE_CELL / 2.0)
    return replace(_edge_table(scenario, params, narrow, qos), band=band)


def stepwise_shrink(scenario, params, band, qos, lo, hi, step):
    """Shrink ``[lo, hi]`` symmetrically one half ``step`` at a time until
    its edges are in band, more than ``FREQ_TOL`` apart and pass
    ``_edges_ok``, one step per call: the kept interval and its step, or
    (None, None) if the interval vanishes first."""
    width, mid = hi - lo, (lo + hi) / 2.0
    for s in range(int(np.ceil(width / step - 1e-9)) + 1):
        half = max(width / 2.0 - s * (step / 2.0), 0.0)
        a, b = mid - half, mid + half
        if (b - a > FREQ_TOL and a >= band[0] - FREQ_TOL
                and a > params.cutoff_frequency + FREQ_TOL
                and b <= band[1] + FREQ_TOL
                and _edges_ok(scenario, params, np.array([a]), np.array([b]),
                              qos)[0]):
            return (a, b), s
    return None, None


def resolve_overlaps_scalar(candidates, scenario, params, band, qos,
                            grid_step, total_bandwidth):
    """``cegmm.resolve_overlaps`` without table lookups, pricing each
    compared interval's RSS (the UE sum of the received PSD at its
    midpoint) by its own scalar call and shrinking each moved interval by
    ``stepwise_shrink``."""
    items = sorted(([c - w / 2.0, c + w / 2.0] for c, w in candidates
                    if w > 0.0), key=lambda iv: iv[0])
    touched = [False] * len(items)
    rss_cache = {}

    def rss_of(iv):
        key = (iv[0], iv[1])
        if key not in rss_cache:
            rss_cache[key] = float(np.sum(received_strength_psd(
                scenario, params, (iv[0] + iv[1]) / 2.0)))
        return rss_cache[key]

    while True:
        order = sorted(range(len(items)), key=lambda i: items[i][0])
        items = [items[i] for i in order]
        touched = [touched[i] for i in order]
        clash = next((i for i in range(len(items) - 1)
                      if items[i + 1][0] < items[i][1] - FREQ_TOL), None)
        if clash is None:
            break
        a, b = items[clash], items[clash + 1]
        if rss_of(a) >= rss_of(b):
            winner, loser, loser_idx = a, b, clash + 1
        else:
            winner, loser, loser_idx = b, a, clash
        if loser[0] < winner[0] and loser[1] > winner[1]:
            left, right = (loser[0], winner[0]), (winner[1], loser[1])
            loser[0], loser[1] = (left if left[1] - left[0]
                                  >= right[1] - right[0] else right)
        elif loser[0] < winner[0]:
            loser[1] = winner[0]
        else:
            loser[0] = winner[1]
        touched[loser_idx] = True
        alive = [i for i, iv in enumerate(items) if iv[1] - iv[0] > FREQ_TOL]
        items = [items[i] for i in alive]
        touched = [touched[i] for i in alive]

    widths = [iv[1] - iv[0] for iv in items]
    excess = sum(widths) - total_bandwidth
    if excess > FREQ_TOL:
        for i in sorted(range(len(items)), key=lambda i: (rss_of(items[i]), i)):
            if excess <= FREQ_TOL:
                break
            cut = min(widths[i], excess)
            items[i][0] += cut / 2.0
            items[i][1] -= cut / 2.0
            widths[i] -= cut
            excess -= cut
            touched[i] = True
        keep = [i for i, iv in enumerate(items) if iv[1] - iv[0] > FREQ_TOL]
        items = [items[i] for i in keep]
        touched = [touched[i] for i in keep]

    out = []
    for (lo, hi), moved in zip(items, touched):
        if moved:
            fixed, _ = stepwise_shrink(scenario, params, band, qos, lo, hi,
                                       grid_step)
            if fixed is None:
                continue
            lo, hi = fixed
        out.append(((lo + hi) / 2.0, hi - lo))
    return sorted(out, key=lambda cw: cw[0])


def _component_log_density(weights, means, variances, values):
    """Log of weight_l * N(x | mean_l, var_l), shape (n, components)."""
    x = np.asarray(values, float)[:, None]
    with np.errstate(divide="ignore"):
        logw = np.log(np.asarray(weights, float))[None, :]
    return logw + -0.5 * (np.log(2.0 * np.pi * variances[None, :])
                          + (x - means[None, :]) ** 2 / variances[None, :])


def _logsumexp(a, axis):
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return peak.squeeze(axis) + np.log(np.sum(np.exp(a - peak), axis=axis))


def em_fit_reference(values, num_components, init, var_floor=0.0, tol=1e-6,
                     max_iter=100, history=None):
    """``cegmm.em_fit`` as the wrappers write it: the same EM iterations,
    component drops and stopping rule."""
    x = np.asarray(values, float)
    n = x.size
    weights = np.asarray(init.weights, float).copy()
    means = np.asarray(init.means, float).copy()
    variances = np.asarray(init.variances, float).copy()
    tiny_var = max(var_floor, 1e-300)
    ll_prev = -np.inf
    for _ in range(max_iter):
        log_comp = _component_log_density(weights, means, variances, x)
        log_mix = _logsumexp(log_comp, axis=1)
        ll = float(np.sum(log_mix))
        if history is not None:
            history.append(ll)
        if np.isfinite(ll_prev) and ll - ll_prev < tol * max(abs(ll_prev),
                                                             1e-12):
            break
        ll_prev = ll
        resp = np.exp(log_comp - log_mix[:, None])
        mass = resp.sum(axis=0)
        alive = mass > n * 1e-12
        if not np.all(alive):
            if alive.sum() == 0:
                alive[int(np.argmax(mass))] = True
            resp = resp[:, alive]
            mass = mass[alive]
            means = means[alive]
            variances = variances[alive]
            ll_prev = -np.inf
        means = resp.T @ x / mass
        variances = (resp * (x[:, None] - means[None, :]) ** 2).sum(axis=0) / mass
        variances = np.maximum(variances, tiny_var)
        weights = mass / n
        weights = weights / weights.sum()
    return Gmm(weights, means, variances)


def bic_reference(gmm, values):
    """3*components*ln(n) - 2*loglik with the log-likelihood recomputed."""
    n = np.asarray(values, float).size
    ll = float(np.sum(_logsumexp(_component_log_density(
        gmm.weights, gmm.means, gmm.variances, values), axis=1)))
    return 3.0 * gmm.num_components * np.log(n) - 2.0 * ll
