"""Mixture fitting, bandwidth search and the cross-entropy allocator.

The bandwidth and overlap logic is checked against independent scalar
re-implementations of the stepwise rules; the allocator against a coarse
exhaustive scan on a small deployment.
"""

import itertools

import numpy as np
import pytest

from lwcf.antenna import AntennaParams, envelope_ratio, peak_frequency
from lwcf.cegmm import (
    EDGE_BLOCKS,
    EM_MAX_ITER,
    ENVELOPE_DB_TOL,
    ENVELOPE_REL_TOL,
    FREQ_TOL,
    CeHyperparams,
    Gmm,
    InfeasibleBand,
    QosConfig,
    allocate,
    bandwidth_search,
    bandwidth_searches,
    bic,
    check_coherence,
    em_fit,
    evaluate_candidate,
    evaluate_candidates,
    gmm_log_likelihood,
    initial_proposal,
    refit_proposal,
    resolve_overlaps,
    sample_gmm,
    score_batch,
    validate_plan,
)
from lwcf.cegmm import (TABLE_CELL, TIER_BATCH, _edge_table, _edges_ok,
                        _quantile_init, _revalidate, _smooth, _truncate)
from lwcf.mimo import SingularChannel, received_strength_psd
from lwcf.scenario import ScenarioConfig, generate_scenario
from oracles import (bic_reference, cell_free_check, certified_per_interval,
                     em_fit_reference, resolve_overlaps_scalar,
                     stepwise_shrink)

PARAMS = AntennaParams(1.0, 0.15, 130.0, 100e9)
BAND = (100e9, 200e9)
QOS = QosConfig(min_rx_psd=10 ** (-20.4), coherence_gap_db=0.5)


def make_scenario(num_aps=6, num_ues=3, seed=0, bandwidth=10e9):
    return generate_scenario(ScenarioConfig(
        area_side=200.0, num_aps=num_aps, num_ues=num_ues,
        elev_diff_range=(5.0, 10.0), total_power=2.0,
        total_bandwidth=bandwidth, noise_psd=10 ** (-19.8), seed=seed))


def edges_valid(sc, lo, hi, qos=QOS):
    """Scalar re-statement of the per-edge access and coherence checks."""
    p_lo = received_strength_psd(sc, PARAMS, lo)
    p_hi = received_strength_psd(sc, PARAMS, hi)
    if np.any(p_lo < qos.min_rx_psd) or np.any(p_hi < qos.min_rx_psd):
        return False
    if np.any(p_lo <= 0.0) or np.any(p_hi <= 0.0):
        return False
    gap = np.abs(10.0 * np.log10(p_lo) - 10.0 * np.log10(p_hi))
    return bool(np.all(gap < qos.coherence_gap_db))


# ---------------------------------------------------------------------------
# mixture model
# ---------------------------------------------------------------------------

def test_gmm_validation():
    with pytest.raises(ValueError):
        Gmm(np.array([0.6, 0.6]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Gmm(np.array([1.0]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        Gmm(np.array([0.5, 0.5]), np.array([0.0]), np.array([1.0]))


def test_gmm_from_lists_samples_as_from_arrays():
    """A mixture given lists stores float arrays, keeps the checks, and
    draws what the same mixture given arrays draws; an array given is
    kept as is."""
    lists = ([0.25, 0.75], [120e9, 170e9], [1e18, 4e18])
    arrays = [np.array(field) for field in lists]
    from_lists, from_arrays = Gmm(*lists), Gmm(*arrays)
    assert all(isinstance(f, np.ndarray) and f.dtype == float
               for f in (from_lists.weights, from_lists.means,
                         from_lists.variances))
    assert from_arrays.means is arrays[1]
    assert from_lists.num_components == 2
    for n in (1, 64):
        a = sample_gmm(from_lists, n, np.random.default_rng(3), band=BAND)
        b = sample_gmm(from_arrays, n, np.random.default_rng(3), band=BAND)
        assert np.array_equal(a, b)
    assert Gmm([1.0], [0.0], [1.0]).num_components == 1
    with pytest.raises(ValueError):
        Gmm([0.6, 0.6], [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        Gmm([1.0], [0.0], [0])


def test_sample_gmm_deterministic_and_in_band():
    g = Gmm(np.array([0.5, 0.5]), np.array([90e9, 210e9]), np.array([1e18, 1e18]))
    a = sample_gmm(g, 64, np.random.default_rng(1), band=BAND)
    b = sample_gmm(g, 64, np.random.default_rng(1), band=BAND)
    assert np.array_equal(a, b)
    # both component means sit outside the band, draws still land inside
    assert np.all(a >= BAND[0]) and np.all(a <= BAND[1])


def test_em_loglik_never_decreases():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(20, 60))
        x = np.concatenate([
            rng.normal(120e9, 3e9, n),
            rng.normal(170e9, 5e9, n // 2),
        ])
        k = int(rng.integers(1, 4))
        init = Gmm(np.full(k, 1.0 / k),
                   np.linspace(110e9, 190e9, k),
                   np.full(k, 1e19))
        history = []
        em_fit(x, k, init, var_floor=1e12, history=history)
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(history[:-1])))


def test_em_recovers_two_modes():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = np.concatenate([rng.normal(120e9, 2e9, 200),
                            rng.normal(160e9, 2e9, 200)])
        init = Gmm(np.array([0.5, 0.5]), np.quantile(x, [0.25, 0.75]),
                   np.full(2, np.var(x)))
        fit = em_fit(x, 2, init, var_floor=1e12)
        means = np.sort(fit.means)
        if abs(means[0] - 120e9) < 0.5e9 and abs(means[1] - 160e9) < 0.5e9:
            hits += 1
    assert hits >= 8


def test_em_drops_starved_component():
    rng = np.random.default_rng(3)
    x = rng.normal(130e9, 1e9, 80)
    init = Gmm(np.array([0.5, 0.5]), np.array([130e9, 1e15]),
               np.array([1e18, 1.0]))
    fit = em_fit(x, 2, init, var_floor=1e12)
    assert fit.num_components == 1
    assert abs(fit.means[0] - np.mean(x)) < 1e8


def test_em_respects_var_floor_and_rejects_empty():
    x = np.full(30, 150e9)          # zero spread
    init = Gmm(np.array([1.0]), np.array([150e9]), np.array([1e18]))
    fit = em_fit(x, 1, init, var_floor=1e16)
    assert np.all(fit.variances >= 1e16)
    with pytest.raises(ValueError):
        em_fit(np.array([]), 1, init)


def test_bic_formula():
    g = Gmm(np.array([0.3, 0.7]), np.array([120e9, 160e9]), np.array([1e18, 4e18]))
    x = np.array([118e9, 121e9, 159e9, 162e9, 140e9])
    expected = 3.0 * 2 * np.log(5) - 2.0 * gmm_log_likelihood(g, x)
    assert bic(g, x) == pytest.approx(expected, rel=1e-12)


def em_cases():
    """Seeded EM inputs (values, k, init, var_floor, max_iter): quantile
    starts as the refit makes them, a starved component and a zero initial
    weight that both drop, and fits cut at ``max_iter``."""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        x = np.concatenate([rng.normal(120e9, 3e9, int(rng.integers(5, 30))),
                            rng.normal(170e9, 6e9, int(rng.integers(5, 30)))])
        for k in range(1, 5):
            yield x, k, _quantile_init(x, k, max(np.var(x), 1e16)), 1e16, 100
        yield x, 3, _quantile_init(x, 3, max(np.var(x), 1e12)), 1e12, 3
        yield x, 2, Gmm(np.array([0.5, 0.5]), np.array([130e9, 1e15]),
                        np.array([1e18, 1.0])), 1e12, 100
        yield x, 2, Gmm(np.array([1.0, 0.0]), np.array([130e9, 160e9]),
                        np.array([1e18, 1e18])), 1e12, 100


def test_lean_em_fit_matches_the_reference_bit_for_bit():
    """``em_fit`` keeps every operation of the wrapper form, so its
    mixtures and log-likelihood histories are the reference's bits,
    through component drops and ``max_iter`` stops."""
    drops = cut = 0
    for x, k, init, var_floor, max_iter in em_cases():
        got_hist, want_hist = [], []
        got = em_fit(x, k, init, var_floor=var_floor, max_iter=max_iter,
                     history=got_hist)
        want = em_fit_reference(x, k, init, var_floor=var_floor,
                                max_iter=max_iter, history=want_hist)
        assert got_hist == want_hist
        for field in ("weights", "means", "variances"):
            assert (getattr(got, field).tobytes()
                    == getattr(want, field).tobytes())
        drops += got.num_components < k
        cut += len(got_hist) == max_iter
    assert drops >= 12 and cut >= 6


def test_a_converged_fit_reuses_its_log_likelihood_for_bic():
    """A fit that stopped before ``max_iter`` last evaluated the returned
    mixture, so that history entry is ``gmm_log_likelihood``'s bits and
    the BIC it gives equals ``bic``'s and the recomputing reference's."""
    converged = 0
    for x, k, init, var_floor, max_iter in em_cases():
        history = []
        fit = em_fit(x, k, init, var_floor=var_floor, max_iter=max_iter,
                     history=history)
        if len(history) < max_iter:
            converged += 1
            assert history[-1] == gmm_log_likelihood(fit, x)
            assert bic(fit, x, history[-1]) == bic(fit, x) == bic_reference(
                fit, x)
    assert converged >= 30


def test_refit_proposal_equals_the_recomputing_reference(monkeypatch):
    """On seeded elite pools, ``refit_proposal`` (lean EM, reused BIC)
    gives the bits of the reference fits scored by a recomputed BIC, and
    each BIC it takes, from a converged fit or one cut at ``max_iter``,
    is the recomputing reference's."""
    import lwcf.cegmm
    real_fit, real_bic = em_fit, bic
    iterations, scores = [], []

    def fit_spy(*args, **kwargs):
        fit = real_fit(*args, **kwargs)
        iterations.append(len(kwargs["history"]))
        return fit

    def bic_spy(gmm, values, log_likelihood=None):
        score = real_bic(gmm, values, log_likelihood)
        scores.append((score, bic_reference(gmm, values)))
        return score

    monkeypatch.setattr(lwcf.cegmm, "em_fit", fit_spy)
    monkeypatch.setattr(lwcf.cegmm, "bic", bic_spy)
    hyper = CeHyperparams()
    var_floor = 1e-6 * (BAND[1] - BAND[0]) ** 2
    previous = initial_proposal(BAND, hyper.num_samples,
                                hyper.max_components)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        pool = np.concatenate([rng.normal(m, 2e9, 11) for m in
                               rng.uniform(110e9, 190e9, 2)])
        best, best_score = None, np.inf
        var = max(np.var(pool), var_floor)
        for k in range(1, hyper.max_components + 1):
            fit = em_fit_reference(pool, k, _quantile_init(pool, k, var),
                                   var_floor=var_floor)
            score = bic_reference(fit, pool)
            if score < best_score - 1e-12:
                best, best_score = fit, score
        want = _smooth(best, previous, hyper.smoothing, var_floor)
        got = refit_proposal(previous, pool, hyper, var_floor)
        for field in ("weights", "means", "variances"):
            assert (getattr(got, field).tobytes()
                    == getattr(want, field).tobytes())
        previous = got
    assert all(score == want for score, want in scores)
    assert 0 < iterations.count(EM_MAX_ITER) < len(iterations)


def test_initial_proposal_slot_centers():
    # with room for every slot the proposal is one component per slot center
    g = initial_proposal(BAND, 4, 8)
    width = BAND[1] - BAND[0]
    expected = BAND[0] + (np.arange(1, 5) - 0.5) * width / 4
    assert g.num_components == 4
    assert np.allclose(g.means, expected)
    assert np.allclose(g.weights, 0.25)


def test_initial_proposal_moment_match():
    g = initial_proposal(BAND, 4, 2)
    width = BAND[1] - BAND[0]
    mu = BAND[0] + (np.arange(1, 5) - 0.5) * width / 4
    var = width ** 2 / 64.0
    assert g.num_components == 2
    for j, idx in enumerate((slice(0, 2), slice(2, 4))):
        m = np.mean(mu[idx])
        second = np.mean(var + mu[idx] ** 2)
        assert g.means[j] == pytest.approx(m, rel=1e-12)
        assert g.variances[j] == pytest.approx(second - m ** 2, rel=1e-9)
    assert np.allclose(g.weights, 0.5)


def test_smooth_blend_arithmetic():
    prev = Gmm(np.array([0.4, 0.6]), np.array([120e9, 170e9]),
               np.array([1e18, 2e18]))
    fit = Gmm(np.array([0.5, 0.5]), np.array([130e9, 160e9]),
              np.array([2e18, 2e18]))
    out = _smooth(fit, prev, 0.7, var_floor=0.0)
    assert np.allclose(out.means, [0.7 * 130e9 + 0.3 * 120e9,
                                   0.7 * 160e9 + 0.3 * 170e9])
    assert np.allclose(out.weights, [0.7 * 0.5 + 0.3 * 0.4,
                                     0.7 * 0.5 + 0.3 * 0.6])
    # count mismatch: the fresh fit wins outright
    single = Gmm(np.array([1.0]), np.array([150e9]), np.array([1e18]))
    assert _smooth(single, prev, 0.7, 0.0) is single


# ---------------------------------------------------------------------------
# bandwidth search and overlap resolution
# ---------------------------------------------------------------------------

def brute_bandwidth(center, sc, step, cap=None, band=BAND, qos=QOS):
    """Stepwise reference: grow symmetrically until an edge check fails."""
    room = min(center - band[0], band[1] - center,
               center - PARAMS.cutoff_frequency - 2e-3)
    limit = 2.0 * room
    if cap is not None:
        limit = min(limit, cap)
    best = 0.0
    s = 1
    while s * step <= limit + 5e-4:
        w = s * step
        if not edges_valid(sc, center - w / 2.0, center + w / 2.0, qos):
            return best
        best = w
        s += 1
    return best


def test_bandwidth_search_matches_stepwise_reference():
    sc = make_scenario(seed=1)
    check = _edge_table(sc, PARAMS, BAND, QOS)
    rng = np.random.default_rng(2)
    checked_positive = 0
    for _ in range(12):
        center = float(rng.uniform(105e9, 195e9))
        got = float(bandwidth_searches([center], check, 50e6)[0])
        assert bandwidth_search(center, sc, PARAMS, BAND, QOS, 50e6) == got
        want = brute_bandwidth(center, sc, 50e6)
        assert got == pytest.approx(want, abs=1e-3)
        if want > 0.0:
            checked_positive += 1
            # result is an exact number of grid steps
            assert (got / 50e6) == pytest.approx(round(got / 50e6), abs=1e-9)
    assert checked_positive >= 3     # the scenario must exercise the search


def test_band_narrower_than_one_cell_keeps_the_exact_widths_and_steps():
    """A band that ends 50 MHz above cutoff holds no table cell: its edge
    check certifies nothing and interpolates nothing, so every step that
    reaches ``ok`` goes to its envelope tier.  ``bandwidth_searches`` keeps
    the widths of the stepwise exact scan, and ``_revalidate`` the steps of
    ``stepwise_shrink``, which run into the band top and the cutoff."""
    import lwcf.cegmm
    band = (PARAMS.cutoff_frequency, PARAMS.cutoff_frequency + 50e6)
    qos = QosConfig(min_rx_psd=10 ** -23.0, coherence_gap_db=0.5)
    sc = make_scenario(seed=1, num_aps=8, num_ues=4)
    check = _edge_table(sc, PARAMS, band, qos)
    assert check.edges[0] > band[1] and not np.isfinite(check.rem).any()
    step = 1e6
    centers = np.linspace(band[0] + 1e6, band[1] - 1e6, 25)
    lo, hi = centers - 1e6, centers + 1e6
    assert not check.certified(lo, hi).any()
    assert not np.any(check.interpolated(lo, hi))
    asked = []
    real_ok = lwcf.cegmm._EdgeCheck.ok

    def ok_spy(self, lo, hi):
        asked.append(len(lo))
        return real_ok(self, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lwcf.cegmm._EdgeCheck, "ok", ok_spy)
        calls = spy_edge_psds(patch)
        got = bandwidth_searches(centers, check, step)
    want = [brute_bandwidth(c, sc, step, band=band, qos=qos) for c in centers]
    assert got.tolist() == want
    assert sum(w > 0.0 for w in want) >= 10
    # every step a search checks reaches the envelope tier: one envelope
    # call per ``ok`` call, on the lower and upper edges of all its steps
    reached = [n // 2 for envelope, n in calls if envelope]
    assert asked == reached and sum(asked) >= sum(want) / step
    rng = np.random.default_rng(7)
    lo = rng.uniform(band[0] - 5e6, band[1] - 5e6, 40)
    hi = lo + rng.uniform(2e6, 30e6, 40)
    kept = [stepwise_shrink(sc, PARAMS, band, qos, a, b, step)
            for a, b in zip(lo, hi)]
    got = _revalidate([[[a, b, True]] for a, b in zip(lo, hi)], check, step)
    assert got == [shrunk_plan(interval) for interval, _ in kept]
    steps = [at for _, at in kept]
    assert sum(at is not None and at > 0 for at in steps) >= 10
    assert sum(at == 0 for at in steps) >= 3


def test_bandwidth_search_budget_cap():
    sc = make_scenario(seed=1)
    checks = (_edge_table(sc, PARAMS, BAND, QOS),
              cell_free_check(sc, PARAMS, BAND, QOS))
    rng = np.random.default_rng(4)
    for _ in range(8):
        center = float(rng.uniform(110e9, 190e9))
        free = bandwidth_search(center, sc, PARAMS, BAND, QOS, 50e6)
        if free < 200e6:
            continue
        for check in checks:
            capped = bandwidth_searches([center], check, 50e6,
                                        max_bandwidth=100e6)[0]
            assert capped == pytest.approx(100e6, abs=1e-3)


def test_one_item_wrappers_stay_out_of_the_package_exports():
    """``bandwidth_search`` and ``resolve_overlaps`` build a whole edge
    check per call, so the package does not export them; both stay in
    ``lwcf.cegmm``."""
    import lwcf
    for name in ("bandwidth_search", "resolve_overlaps"):
        assert name not in lwcf.__all__
        assert not hasattr(lwcf, name)
        assert callable(getattr(lwcf.cegmm, name))


def test_resolve_keeps_disjoint_candidates():
    sc = make_scenario(seed=1)
    cands = []
    for center in (120e9, 150e9, 180e9):
        w = bandwidth_search(center, sc, PARAMS, BAND, QOS, 50e6)
        if w > 0.0:
            cands.append((center, w))
    assert len(cands) >= 2
    out = resolve_overlaps(cands, sc, PARAMS, BAND, QOS, 50e6, 100e9)
    assert out == cands


def test_resolve_truncates_weaker_interval():
    sc = make_scenario(seed=1)
    c1, c2 = 148e9, 149e9
    w = 4e9                                       # heavy mutual overlap
    r1 = float(np.sum(received_strength_psd(sc, PARAMS, c1)))
    r2 = float(np.sum(received_strength_psd(sc, PARAMS, c2)))
    out = resolve_overlaps([(c1, w), (c2, w)], sc, PARAMS, BAND, QOS,
                           50e6, 100e9)
    assert 1 <= len(out) <= 2
    widths = {c: wd for c, wd in out}
    winner = c1 if r1 >= r2 else c2
    # the stronger center keeps its full width (its edges were not moved)
    assert widths[winner] == pytest.approx(w, rel=1e-9)
    total = sum(wd for _, wd in out)
    assert total <= 2 * w + 1e-3
    # disjoint after resolution
    ivs = sorted((c - wd / 2, c + wd / 2) for c, wd in out)
    for (_, hi), (lo, _) in zip(ivs, ivs[1:]):
        assert lo >= hi - 1e-3


def test_resolve_drops_swallowed_interval():
    sc = make_scenario(seed=1)
    r_a = float(np.sum(received_strength_psd(sc, PARAMS, 150e9)))
    r_b = float(np.sum(received_strength_psd(sc, PARAMS, 150.2e9)))
    # the wide interval is centered on whichever of the two wins the contest,
    # so the narrow one sits fully inside the winner and must vanish
    strong, weak = (150e9, 150.2e9) if r_a >= r_b else (150.2e9, 150e9)
    out = resolve_overlaps([(weak, 1e9), (strong, 8e9)], sc, PARAMS, BAND,
                           QOS, 50e6, 100e9)
    assert len(out) == 1
    assert out[0][0] == pytest.approx(strong, rel=1e-9)
    assert out[0][1] == pytest.approx(8e9, rel=1e-9)


def test_resolve_enforces_budget():
    sc = make_scenario(seed=1)
    cands = [(125e9, 3e9), (155e9, 3e9), (185e9, 3e9)]
    out = resolve_overlaps(cands, sc, PARAMS, BAND, QOS, 50e6,
                           total_bandwidth=5e9)
    assert sum(w for _, w in out) <= 5e9 + 1e-3
    # something must survive the cut
    assert len(out) >= 1


def test_resolved_plans_pass_the_same_checks_as_fresh_ones():
    """Whatever the resolver truncates or shrinks, the surviving intervals
    must satisfy the same edge checks as freshly searched bandwidths.  The
    candidates here are genuine search results, packed tightly enough to
    collide, under a budget small enough to force shrinking too."""
    sc = make_scenario(seed=2)
    rng = np.random.default_rng(9)
    for _ in range(10):
        base = float(rng.uniform(110e9, 180e9))
        cands = []
        for c in (base, base + 0.2e9, base + 0.5e9, base + 9e9):
            w = bandwidth_search(float(c), sc, PARAMS, BAND, QOS, 50e6)
            if w > 0.0:
                cands.append((float(c), w))
        out = resolve_overlaps(cands, sc, PARAMS, BAND, QOS, 50e6, 1e9)
        validate_plan(out, BAND, 1e9, PARAMS.cutoff_frequency)
        assert check_coherence(out, sc, PARAMS, QOS)


def test_resolve_overlaps_with_a_table_equals_without(monkeypatch):
    """The table only skips edge checks: colliding candidates under a tight
    budget resolve to the same plan with the check's table and with the
    cell-free check, and with the table most re-validated intervals need
    no received-PSD call: none of their steps reaches the envelope
    tier."""
    import lwcf.cegmm
    sc = make_scenario(seed=2)
    rng = np.random.default_rng(9)
    shrinks, frequencies = [], []
    real = lwcf.cegmm._revalidate

    def spy(record_lists, check, grid_step):
        calls.clear()
        frequencies.clear()
        out = real(record_lists, check, grid_step)
        mids = np.array([(a + b) / 2.0 for records in record_lists
                         for a, b, moved in records if moved])
        # every step of a moved interval keeps its midpoint up to rounding,
        # and the intervals are disjoint
        checked = [m for lo, hi in envelope_tier(calls, frequencies)
                   for m in (lo + hi) / 2.0]
        reached = {int(np.argmin(np.abs(mids - m))) for m in checked}
        assert bool(calls) == bool(reached)
        shrinks.extend((bool(np.isfinite(check.rem).any()),
                        int(i in reached)) for i in range(mids.size))
        return out

    monkeypatch.setattr(lwcf.cegmm, "_revalidate", spy)
    calls = spy_edge_psds(monkeypatch, frequencies)
    for _ in range(10):
        base = float(rng.uniform(110e9, 180e9))
        cands = []
        for c in (base, base + 0.2e9, base + 0.5e9, base + 9e9):
            w = bandwidth_search(float(c), sc, PARAMS, BAND, QOS, 50e6)
            if w > 0.0:
                cands.append((float(c), w))
        want = resolve_overlaps(cands, sc, PARAMS, BAND, QOS, 50e6, 1e9)
        with monkeypatch.context() as patch:
            patch.setattr(lwcf.cegmm, "_edge_table", cell_free_check)
            assert resolve_overlaps(cands, sc, PARAMS, BAND, QOS, 50e6,
                                    1e9) == want
    with_table = [n for given, n in shrinks if given]
    assert len(with_table) * 2 == len(shrinks) >= 20
    assert all(n for given, n in shrinks if not given)
    assert with_table.count(0) > len(with_table) / 2


def test_resolve_overlaps_prices_missing_rss_in_one_call(monkeypatch):
    """Each RSS miss prices every current interval without an RSS in one
    array call.  On seeded drops with six searched candidates in 10 GHz,
    which collide, under a loose and a tight budget, with the edge check's
    table and with the cell-free check, the plans equal those of one
    scalar PSD call per compared interval, in fewer calls."""
    import lwcf.cegmm
    import oracles
    real_psd, real_shrink = received_strength_psd, _revalidate
    calls = {"batched": 0, "compared": 0}
    counting = {"batched": False}

    def cegmm_psd(scenario, params, frequency, envelope=False):
        # the edge check's table is built from envelope PSDs
        calls["batched"] += counting["batched"] and not envelope
        return real_psd(scenario, params, frequency, envelope)

    def oracle_psd(scenario, params, frequency, envelope=False):
        assert np.ndim(frequency) == 0
        calls["compared"] += 1
        return real_psd(scenario, params, frequency, envelope)

    def shrink_spy(*args):
        # edge checks of re-validated intervals are not RSS calls
        counting["batched"] = False
        try:
            return real_shrink(*args)
        finally:
            counting["batched"] = True

    monkeypatch.setattr(lwcf.cegmm, "received_strength_psd", cegmm_psd)
    monkeypatch.setattr(lwcf.cegmm, "_revalidate", shrink_spy)
    monkeypatch.setattr(oracles, "received_strength_psd", oracle_psd)
    cases = 0
    for seed in range(4):
        sc = make_scenario(seed=seed)
        check = _edge_table(sc, PARAMS, BAND, QOS)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            centers = rng.uniform(110e9, 120e9, 6) + rng.uniform(0.0, 60e9)
            widths = bandwidth_searches(centers, check, 50e6)
            cands = [(float(c), float(w))
                     for c, w in zip(centers, widths) if w > 0.0]
            for budget, build in itertools.product(
                    (1e9, 100e9), (_edge_table, cell_free_check)):
                monkeypatch.setattr(lwcf.cegmm, "_edge_table", build)
                before = dict(calls)
                want = resolve_overlaps_scalar(cands, sc, PARAMS, BAND, QOS,
                                               50e6, budget)
                counting["batched"] = True
                got = resolve_overlaps(cands, sc, PARAMS, BAND, QOS, 50e6,
                                       budget)
                counting["batched"] = False
                assert got == want
                batched = calls["batched"] - before["batched"]
                compared = calls["compared"] - before["compared"]
                assert 1 <= batched < compared
                cases += 1
    assert cases == 80
    assert calls["batched"] < calls["compared"] / 2


def test_seeded_rss_equals_the_pricing_of_rss_of(monkeypatch):
    """``evaluate_candidates`` seeds the RSS cache of each list's
    ``_truncate`` with the UE sums of its access PSDs, keyed by center.
    Each seeded value equals the RSS ``rss_of`` prices for that midpoint
    (an array call's row) and the scalar reference's; ``resolve_overlaps``
    on each list gives the same plan seeded and unseeded, the scalar
    reference's, and the seeded calls price fewer frequencies."""
    import lwcf.cegmm
    real_truncate, real_psd = _truncate, received_strength_psd
    seen, priced = [], {"on": False, "freqs": 0}

    def truncate_spy(*args):
        seen.append(args)
        return real_truncate(*args)

    def psd_spy(scenario, params, frequency, envelope=False):
        if priced["on"] and not envelope:
            priced["freqs"] += np.size(frequency)
        return real_psd(scenario, params, frequency, envelope)

    def shrink_spy(*args):
        # edge checks of re-validated intervals are not RSS pricing
        on, priced["on"] = priced["on"], False
        try:
            return _revalidate(*args)
        finally:
            priced["on"] = on

    monkeypatch.setattr(lwcf.cegmm, "_truncate", truncate_spy)
    monkeypatch.setattr(lwcf.cegmm, "received_strength_psd", psd_spy)
    monkeypatch.setattr(lwcf.cegmm, "_revalidate", shrink_spy)
    for seed, budget in itertools.product(range(3), (1e9, 10e9)):
        sc = make_scenario(seed=seed)
        rng = np.random.default_rng(seed)
        batch = [rng.uniform(110e9, 125e9, 4) + rng.uniform(0.0, 60e9)
                 for _ in range(6)]
        evaluate_candidates(batch, _edge_table(sc, PARAMS, BAND, QOS), 50e6,
                            budget)
    assert len(seen) == 36
    # resolve_overlaps below truncates through the module's _truncate
    monkeypatch.setattr(lwcf.cegmm, "_truncate", real_truncate)
    seeded_freqs = unseeded_freqs = 0
    for cands, sc, params, budget, rss in seen:
        rest = (params, BAND, QOS, 50e6, budget)
        for c, value in rss.items():
            assert value == float(real_psd(sc, PARAMS, [c]).sum(axis=1)[0])
            assert value == float(np.sum(real_psd(sc, PARAMS, c)))
        assert {c for c, _ in cands} <= set(rss)
        for seeds in (rss, None):
            priced.update(on=True, freqs=0)
            got = resolve_overlaps(cands, sc, *rest, seeds)
            priced["on"] = False
            if seeds is None:
                unseeded_freqs += priced["freqs"]
            else:
                seeded_freqs += priced["freqs"]
            assert got == resolve_overlaps_scalar(cands, sc, *rest)
    assert seeded_freqs < unseeded_freqs / 2


def shrunk_plan(kept):
    """The plan ``_revalidate`` makes of one moved interval whose shrink
    ``stepwise_shrink`` keeps at ``kept`` (None: it vanishes)."""
    return [] if kept is None else [((kept[0] + kept[1]) / 2.0,
                                     kept[1] - kept[0])]


def test_shrink_without_a_table_checks_step_zero_alone(monkeypatch):
    """Re-validating one moved interval with the cell-free check, the
    first call that reaches the envelope tier holds step 0 alone and the
    later ones at most 32 steps, and with the table the blocks are the
    same.  Re-validating all of them in one call, plus intervals that
    leave the band and ones that vanish, the calls hold at most
    ``TIER_BATCH`` intervals, and the ones with step-0 intervals come
    first and hold nothing else: with the cell-free check the first holds
    every step 0 in band.  With the table or without, alone or together,
    the kept step is the first one a stepwise scan accepts."""
    sc = make_scenario(seed=1, num_aps=8, num_ues=4)
    table = _edge_table(sc, PARAMS, BAND, QOS)
    cell_free = cell_free_check(sc, PARAMS, BAND, QOS)
    step = 50e6
    frequencies = []
    calls = spy_edge_psds(monkeypatch, frequencies)

    def revalidate(record_lists, check):
        """``_revalidate`` at ``step``, with the number of intervals and
        the edge pairs of each envelope-tier call it makes."""
        calls.clear()
        frequencies.clear()
        out = _revalidate(record_lists, check, step)
        tiers = envelope_tier(calls, frequencies)
        return (out, [lo.size for lo, _ in tiers],
                [set(zip(lo.tolist(), hi.tolist())) for lo, hi in tiers])

    kept, wants = [], []
    for lo, hi in zip(*random_intervals(5, n=60)):
        want, at = stepwise_shrink(sc, PARAMS, BAND, QOS, lo, hi, step)
        got, sizes, _ = revalidate([[[lo, hi, True]]], cell_free)
        assert got == [shrunk_plan(want)]
        # every random interval has step 0 in band
        assert sizes[0] == 1 and all(n <= 32 for n in sizes[1:])
        got, sizes, _ = revalidate([[[lo, hi, True]]], table)
        assert got == [shrunk_plan(want)]
        assert sizes[:1] in ([], [1]) and all(n <= 32 for n in sizes)
        kept.append(at)
        wants.append(shrunk_plan(want))
    assert kept.count(0) >= 5
    assert sum(at is not None and at > 32 for at in kept) >= 5

    lo, hi = random_intervals(5, n=60)
    edges = list(zip(lo.tolist(), hi.tolist()))
    # across the band's edges and the cutoff, then out of band, narrower
    # than FREQ_TOL and empty
    edges += [(99.5e9, 102e9), (198.5e9, 200.6e9), (99e9, 130e9),
              (90e9, 95e9), (201e9, 204e9), (150e9, 150e9 + FREQ_TOL / 2.0),
              (160e9, 160e9)]
    extra = [stepwise_shrink(sc, PARAMS, BAND, QOS, a, b, step)
             for a, b in edges[60:]]
    wants += [shrunk_plan(want) for want, _ in extra]
    assert sum(at is None for _, at in extra) >= 4
    assert sum(at is not None and at > 0 for _, at in extra) >= 2
    step0 = {((a + b) / 2.0 - (b - a) / 2.0, (a + b) / 2.0 + (b - a) / 2.0)
             for a, b in edges}
    valid = {(a, b) for a, b in step0 if b - a > FREQ_TOL
             and a >= BAND[0] - FREQ_TOL and a > PARAMS.cutoff_frequency
             + FREQ_TOL and b <= BAND[1] + FREQ_TOL}
    for t in (cell_free, table):
        got, sizes, checked = revalidate([[[a, b, True]] for a, b in edges],
                                         t)
        assert got == wants and max(sizes) <= TIER_BATCH
        firsts = [c <= step0 for c in checked if c]
        assert firsts == sorted(firsts, reverse=True)
        assert all(c <= step0 or not c & step0 for c in checked)
        if t is cell_free:
            assert checked[0] == valid and sizes[0] == len(valid)


def spy_edge_psds(monkeypatch, frequencies=None):
    """Record (envelope, number of frequencies) of every received-PSD call
    the allocator module makes; with a list ``frequencies``, append each
    call's frequencies to it too."""
    import lwcf.cegmm
    real = lwcf.cegmm.received_strength_psd
    calls = []

    def spy(scenario, params, frequency, envelope=False):
        calls.append((envelope, int(np.size(frequency))))
        if frequencies is not None:
            frequencies.append(np.array(frequency, dtype=float))
        return real(scenario, params, frequency, envelope)

    monkeypatch.setattr(lwcf.cegmm, "received_strength_psd", spy)
    return calls


def envelope_tier(calls, frequencies):
    """The (lo, hi) edges of the intervals of each envelope-tier call of
    ``ok`` among the calls ``spy_edge_psds`` recorded after the check was
    built: one envelope call on the lower, then the upper edges."""
    return [(f[:n // 2], f[n // 2:])
            for (envelope, n), f in zip(calls, frequencies) if envelope]


def random_intervals(seed, n=300):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(100.5e9, 199e9, n)
    hi = np.minimum(lo + 10 ** rng.uniform(6.0, 10.0, n), BAND[1])
    return lo, hi


def test_edges_ok_matches_exact_oracle_on_random_intervals(monkeypatch):
    """The envelope tier of the cell-free check's ``ok`` decides every
    random interval alone, in one envelope call, and decides it as the
    exact PSDs do, for threshold and gap failures alike."""
    calls = spy_edge_psds(monkeypatch)
    for seed in range(3):
        sc = make_scenario(seed=seed)
        lo, hi = random_intervals(seed)
        # a threshold at the median edge PSD fails about half the edges
        median = float(np.median(received_strength_psd(sc, PARAMS, lo)))
        for qos in (QOS, QosConfig(median, 0.5), QosConfig(median, 3.0)):
            want = _edges_ok(sc, PARAMS, lo, hi, qos)
            assert 0 < want.sum() < want.size
            check = cell_free_check(sc, PARAMS, BAND, qos)
            calls.clear()
            got = check.ok(lo, hi)
            assert got.dtype == bool and np.array_equal(got, want)
            assert calls == [(True, 2 * lo.size)]


def test_edges_ok_ambiguous_intervals_take_the_exact_path(monkeypatch):
    """A threshold or a coherence limit set exactly on an edge PSD or an
    edge gap cannot be decided from the envelope: the exact PSDs decide,
    on either side of the tie.  So do they at a limit 1e-12 dB above the
    envelope gap plus the dB slack, which lies between the margins of the
    bound rule and the looser ones of a dB-form rule: that rule would call
    the interval good, the ratio rule of ``_verdict`` leaves it unsure."""
    calls = spy_edge_psds(monkeypatch)
    sc = make_scenario(seed=1)
    lo, hi = np.array([150e9]), np.array([150.3e9])
    psd = np.concatenate([received_strength_psd(sc, PARAMS, lo),
                          received_strength_psd(sc, PARAMS, hi)])
    edge = float(np.min(psd))
    gap = float(np.max(np.abs(np.diff(10.0 * np.log10(psd), axis=0))))
    assert 0.0 < gap < 0.5
    env = received_strength_psd(sc, PARAMS, np.concatenate([lo, hi]),
                                envelope=True)
    env_gap = np.abs(10.0 * np.log10(env[0]) - 10.0 * np.log10(env[1]))
    slack_db = 10.0 * np.log10(envelope_ratio(PARAMS)) + ENVELOPE_DB_TOL
    between = QosConfig(0.0, float(env_gap.max()) + slack_db + 1e-12)
    assert np.all(env_gap + slack_db < between.coherence_gap_db)
    good, bad = cell_free_check(sc, PARAMS, BAND, between)._verdict(env, env)
    assert not good[0] and not bad[0]
    cases = [(QosConfig(edge, 0.5), True),
             (QosConfig(np.nextafter(edge, np.inf), 0.5), False),
             (QosConfig(0.0, gap), False),
             (QosConfig(0.0, np.nextafter(gap, np.inf)), True)]
    got, exact, paths = [], [], []
    for qos in [qos for qos, _ in cases] + [between]:
        exact.append(bool(_edges_ok(sc, PARAMS, lo, hi, qos)[0]))
        check = cell_free_check(sc, PARAMS, BAND, qos)
        calls.clear()
        got.append(check.ok(lo, hi).tolist())
        paths.append(list(calls))
    assert exact[:-1] == [expected for _, expected in cases]
    assert got == [[flag] for flag in exact]
    # one envelope PSD call on both edges, then the exact pair for the
    # undecided interval
    assert all(p == [(True, 2), (False, 1), (False, 1)] for p in paths)


def test_edges_ok_without_a_useful_envelope_is_exact(monkeypatch):
    """No attenuation, or a bracket as wide as the coherence limit (rho is
    ~13 at 1 rad/m), sends every interval of the cell-free check's ``ok``
    down the exact path; with a limit beyond the bracket the envelope is
    used again."""
    calls = spy_edge_psds(monkeypatch)
    sc = make_scenario(seed=0)
    lo, hi = random_intervals(5, n=60)
    for attenuation, qos, uses_envelope in (
            (0.0, QOS, False), (1.0, QOS, False),
            (1.0, QosConfig(QOS.min_rx_psd, 20.0), True)):
        params = AntennaParams(1.0, 0.15, attenuation, 100e9)
        want = _edges_ok(sc, params, lo, hi, qos)
        check = cell_free_check(sc, params, BAND, qos)
        assert check.envelope == uses_envelope
        calls.clear()
        assert np.array_equal(check.ok(lo, hi), want)
        assert any(envelope for envelope, _ in calls) == uses_envelope


def test_edges_ok_empty_input():
    sc = make_scenario(seed=0)
    empty = np.array([])
    for params in (PARAMS, AntennaParams(1.0, 0.15, 0.0, 100e9)):
        for got in (_edges_ok(sc, params, empty, empty, QOS),
                    cell_free_check(sc, params, BAND, QOS).ok(empty, empty)):
            assert got.shape == (0,) and got.dtype == bool


def table_bounds(table, params, qos):
    """Per-cell (lower, upper) envelope PSD bounds, shapes (K, C), and
    which cells are usable, of the table of (params, qos)."""
    eps = ENVELOPE_REL_TOL
    slack_db = 10.0 * np.log10(envelope_ratio(params)) + ENVELOPE_DB_TOL
    max_ratio = (10.0 ** ((qos.coherence_gap_db - slack_db) / 10.0)
                 * (1.0 - eps) / (1.0 + eps))
    usable = np.isfinite(table.upper[:-1]).all(axis=1)
    return table.lower_r[:-1].T / max_ratio, table.upper[:-1].T, usable


def test_edge_table_bounds_the_envelope_psd():
    """On a 33-point grid inside every usable cell, from just above cutoff
    to the band top, every UE's envelope PSD lies within that cell's
    bounds to eps, at 130 rad/m and at 13 rad/m, where a link's envelope
    is ten times narrower.  The cells include those that hold a link's
    peak frequency, and cells where a UE's PSD peaks strictly inside."""
    eps = ENVELOPE_REL_TOL
    loose = QosConfig(0.0, 40.0)
    weak = AntennaParams(1.0, 0.15, 13.0, 100e9)
    interior_peaks = 0
    for params, seed in [(p, seed) for p in (PARAMS, weak) for seed in range(3)]:
        sc = make_scenario(seed=seed)
        table = _edge_table(sc, params, BAND, loose)
        lower, upper, usable = table_bounds(table, params, loose)
        edges = table.edges
        assert edges[0] == params.cutoff_frequency + TABLE_CELL
        assert edges[-1] == BAND[1] and usable.mean() > 0.99
        assert np.allclose(np.diff(edges), TABLE_CELL, rtol=1e-6, atol=0)
        grid = edges[:-1, None] + np.outer(np.diff(edges),
                                           np.linspace(0.0, 1.0, 33))
        env = received_strength_psd(sc, params, grid.ravel(), envelope=True)
        env = env.reshape(grid.shape + (sc.num_ues,))[usable]  # (C, 33, K)
        assert np.all(env >= lower.T[usable][:, None, :] * (1.0 - eps))
        assert np.all(env <= upper.T[usable][:, None, :] * (1.0 + eps))
        peak_freq = peak_frequency(params.cutoff_frequency, sc.angles)
        peak_cells = np.searchsorted(edges, peak_freq) - 1
        peak_cells = peak_cells[(peak_cells >= 0) & (peak_cells < usable.size)]
        assert np.unique(peak_cells[usable[peak_cells]]).size >= 5
        interior_peaks += int(np.sum(env.max(axis=1)
                                     > np.maximum(env[:, 0], env[:, -1])))
    # PSD values at a cell's edges alone could not have bounded these
    assert interior_peaks >= 20


def test_interpolant_and_remainder_bound_the_envelope_psd():
    """On a 33-point grid inside every usable cell (finite remainder), at
    130 rad/m and at 13 rad/m, where the remainder is ~100 times wider,
    every UE's envelope PSD lies within the linear interpolant of the edge
    values plus and minus the remainder.  The bound is not vacuous: the
    interpolant misses by a share of it, and only cells next to cutoff
    are unusable."""
    eps = ENVELOPE_REL_TOL
    loose = QosConfig(0.0, 40.0)
    weak = AntennaParams(1.0, 0.15, 13.0, 100e9)
    for params, seed in itertools.product((PARAMS, weak), range(3)):
        sc = make_scenario(seed=seed)
        table = _edge_table(sc, params, BAND, loose)
        edges = table.edges
        usable = np.isfinite(table.rem[:-1])
        assert usable.mean() > 0.99 and not np.isfinite(table.rem[-1])
        assert np.all(edges[:-1][~usable] < params.cutoff_frequency + 1e9)
        t = np.linspace(0.0, 1.0, 33)
        grid = edges[:-1, None] + np.outer(np.diff(edges), t)
        env = received_strength_psd(sc, params, grid.ravel(), envelope=True)
        env = env.reshape(grid.shape + (sc.num_ues,))[usable]   # (C, 33, K)
        at = table.values[:-1][usable][:, None, :]
        nxt = table.values[1:][usable][:, None, :]
        interp = at + t[None, :, None] * (nxt - at)
        room = table.rem[:-1][usable][:, None, None] * at
        miss = np.abs(env - interp)
        assert np.all(miss <= room * (1.0 + eps) + eps * env)
        assert np.max(miss / room) > 0.25


def test_table_cells_equal_searchsorted():
    """The cell of a frequency comes from its position on the uniform grid
    and one correction against the stored edges; it equals
    ``searchsorted(edges, f) - 1`` bit for bit on the edges themselves,
    their float neighbours, points a few ulps above them, cell midpoints,
    and points below, above and far outside the table, for a band top the
    cell width divides and two it does not; on these grids the position
    rounds each way off a stored edge."""
    sc = make_scenario(seed=1)
    for top in (BAND[1], 173.3e9, 199.99e9):
        table = _edge_table(sc, PARAMS, (BAND[0], top), QOS)
        e = table.edges
        f = np.concatenate([
            e, np.nextafter(e, np.inf), np.nextafter(e, -np.inf),
            e + 1e-4, e + 1e-3, (e[:-1] + e[1:]) / 2.0,
            np.random.default_rng(0).uniform(BAND[0], top + 1e9, 2000),
            [PARAMS.cutoff_frequency, 0.0, -1e12, 1e20, top, top + 1.0]])
        for points in (f, np.sort(f), f[:1], f[-3:]):
            got = table._cells(points)
            assert np.array_equal(got, np.searchsorted(e, points) - 1)


def test_interpolated_tier_agrees_with_the_exact_oracle():
    """On intervals within 3 steps of each stepwise-exact width, with the
    0.5 dB gap and with the access threshold ending the searches, a step
    the per-interval tier proves good passes the exact-PSD oracle and one
    it proves bad fails it; the tier decides most of them, on both sides
    of the boundary."""
    step, cap = 10e6, 10e9
    counts = {"good": 0, "bad": 0, "unsure": 0}
    for seed in range(3):
        sc = make_scenario(seed=seed, num_aps=8, num_ues=4)
        centers = np.random.default_rng(200 + seed).uniform(101e9, 199e9, 12)
        center_psd = received_strength_psd(sc, PARAMS, centers).min(axis=1)
        gap_table = _edge_table(sc, PARAMS, BAND, QosConfig(0.0, 0.5))
        for center, psd in zip(centers, center_psd):
            threshold = QosConfig(psd * 10 ** -0.02, 40.0)
            for qos in (QosConfig(0.0, 0.5), threshold):
                table = (gap_table if qos is not threshold
                         else _edge_table(sc, PARAMS, BAND, qos))
                width, max_steps = stepwise_width(center, sc, qos, step, cap)
                at = int(round(width / step))
                steps = np.arange(max(at - 3, 1), min(at + 3, max_steps) + 1)
                lo = center - steps * step / 2.0
                hi = center + steps * step / 2.0
                exact = _edges_ok(sc, PARAMS, lo, hi, qos)
                good, bad = table.interpolated(lo, hi)
                assert not np.any(good & bad)
                assert np.all(exact[good]) and not np.any(exact[bad])
                counts["good"] += int(good.sum())
                counts["bad"] += int(bad.sum())
                counts["unsure"] += int(np.sum(~good & ~bad))
    assert counts["good"] >= 100 and counts["bad"] >= 100
    assert counts["unsure"] < (counts["good"] + counts["bad"]) / 5


def stepwise_width(center, sc, qos, step, cap):
    """One grid step at a time until the exact-PSD oracle rejects a step;
    also returns the number of steps the band and the cap allow."""
    room = min(center - BAND[0], BAND[1] - center,
               center - PARAMS.cutoff_frequency - 2.0 * FREQ_TOL)
    max_steps = int(np.floor((min(2.0 * room, cap) + FREQ_TOL / 2.0) / step))
    widths = np.arange(1, max_steps + 1) * step
    ok = _edges_ok(sc, PARAMS, center - widths / 2.0,
                   center + widths / 2.0, qos)
    best = 0.0
    for width, good in zip(widths, ok):
        if not good:
            break
        best = float(width)
    return best, max_steps


def test_bandwidth_search_equals_stepwise_exact_scan():
    """Widths equal a one-step-at-a-time scan with the exact-PSD oracle
    when the access threshold ends the searches, when a 0.5 dB coherence
    gap does, and when neither does and they run to the last step; with
    the edge check of each setting, the one-center wrapper's own and the
    cell-free check alike."""
    step, cap = 10e6, 10e9
    ends = {"threshold": 0, "gap": 0, "max_steps": 0}
    looked_up = {name: 0 for name in ends}
    for seed in range(3):
        sc = make_scenario(seed=seed, num_aps=8, num_ues=4)
        tables = {}
        centers = np.random.default_rng(100 + seed).uniform(101e9, 199e9, 12)
        center_psd = received_strength_psd(sc, PARAMS, centers).min(axis=1)
        for center, psd in zip(centers, center_psd):
            settings = {"threshold": QosConfig(psd * 10 ** -0.02, 40.0),
                        "gap": QosConfig(0.0, 0.5),
                        "max_steps": QosConfig(0.0, 40.0)}
            for name, qos in settings.items():
                if name == "threshold" or name not in tables:
                    tables[name] = _edge_table(sc, PARAMS, BAND, qos)
                table = tables[name]
                got = float(bandwidth_searches([center], table, step, cap)[0])
                assert bandwidth_search(float(center), sc, PARAMS, BAND, qos,
                                        step, max_bandwidth=cap) == got
                assert bandwidth_searches(
                    [center], cell_free_check(sc, PARAMS, BAND, qos), step,
                    cap)[0] == got
                want, max_steps = stepwise_width(center, sc, qos, step, cap)
                assert got == want
                looked_up[name] += bool(table.certified(
                    [center - step / 2.0], [center + step / 2.0])[0])
                if name == "max_steps":
                    assert got == max_steps * step
                    ends[name] += 1
                elif got < max_steps * step:
                    # the next step fails for the reason this setting targets
                    edges = center + np.array([-1.0, 1.0]) * (got + step) / 2
                    p = received_strength_psd(sc, PARAMS, edges)
                    gap = np.abs(np.diff(10.0 * np.log10(p), axis=0))
                    if name == "threshold":
                        assert np.any(p < qos.min_rx_psd)
                    else:
                        assert np.any(gap >= qos.coherence_gap_db)
                    ends[name] += 1
    assert ends["threshold"] >= 5 and ends["gap"] >= 20
    assert ends["max_steps"] == 36
    # the searches' own tables settle their first steps by lookup
    assert min(looked_up.values()) >= 30


def test_certified_blocks_make_no_per_interval_psd_call(monkeypatch):
    """A 1000-step search that the table certifies throughout computes no
    per-interval envelope or exact PSD."""
    sc = make_scenario(seed=1, num_aps=8, num_ues=4)
    loose = QosConfig(0.0, 40.0)
    table = _edge_table(sc, PARAMS, BAND, loose)
    widths = np.arange(1, 1001) * 10e6
    assert np.all(table.certified(150e9 - widths / 2.0, 150e9 + widths / 2.0))
    calls = spy_edge_psds(monkeypatch)
    got = bandwidth_searches([150e9], table, 10e6, max_bandwidth=10e9)[0]
    assert got == 10e9
    assert calls == []


def test_table_leaves_steps_at_the_cutoff_to_the_other_tiers():
    """The rounding of the computed envelope can exceed eps near cutoff:
    cells inside that guard never certify, and frequencies below the first
    cell fall in the unusable one.  Searches centred within 50 MHz of
    cutoff still give the widths of the exact scan, with their table and
    with the cell-free check."""
    sc = make_scenario(seed=0)
    loose = QosConfig(0.0, 40.0)
    table = _edge_table(sc, PARAMS, BAND, loose)
    for lowest in (FREQ_TOL, 1e6, 50e6):
        lo = PARAMS.cutoff_frequency + lowest + np.arange(32) * 5e6
        hi = lo + 2e9
        assert np.array_equal(table.certified(lo, hi), lo > table.edges[0])
        want = _edges_ok(sc, PARAMS, lo, hi, loose)
        assert np.all(want)
        assert np.array_equal(table.ok(lo, hi), want)
    # at 13 rad/m the guard reaches ~0.5 GHz above cutoff
    weak = AntennaParams(1.0, 0.15, 13.0, 100e9)
    weak_table = _edge_table(sc, weak, BAND, loose)
    _, _, usable = table_bounds(weak_table, weak, loose)
    cell_lo = weak_table.edges[:-1]
    near = cell_lo < weak.cutoff_frequency + 0.3e9
    far = cell_lo > weak.cutoff_frequency + 1e9
    assert np.diff(weak_table.edges)[near].sum() >= 0.2e9
    assert not usable[near].any() and usable[far].all()
    gap = QosConfig(0.0, 0.5)
    tables = [(loose, table), (gap, _edge_table(sc, PARAMS, BAND, gap))]
    for offset in (2e6, 5e6, 20e6, 50e6):
        center = PARAMS.cutoff_frequency + offset
        for qos, qos_table in tables:
            want, max_steps = stepwise_width(center, sc, qos, 1e6, 10e9)
            assert max_steps >= 1
            for t in (qos_table, cell_free_check(sc, PARAMS, BAND, qos)):
                assert bandwidth_searches([center], t, 1e6,
                                          max_bandwidth=10e9)[0] == want


def cell_pairs(table, rng):
    """Intervals over every pair of 30 cells, 8 apart, and the two outside
    ones, in shuffled order: most consecutive pairs differ."""
    mids = (table.edges[:-1] + table.edges[1:]) / 2.0
    k = int(rng.integers(0, mids.size - 240))
    points = np.concatenate([[table.edges[0] - TABLE_CELL / 2.0],
                             mids[k:k + 240:8], [table.edges[-1] + 1e8]])
    a, b = np.meshgrid(points, points)
    order = np.concatenate([rng.permutation(a.size) for _ in range(5)])
    return a.ravel()[order], b.ravel()[order]


def test_certified_equals_the_per_interval_formula():
    """``certified`` decides each run of equal cell pairs once: on seeded
    intervals with edges below the table, above it, both outside at once,
    on stored cell edges, and many steps of one search in one call, in
    order and shuffled, it equals the per-interval formula."""
    sc = make_scenario(seed=3, num_aps=8, num_ues=4)
    rng = np.random.default_rng(3)
    cutoff = PARAMS.cutoff_frequency
    step = 10e6
    answers = []
    for qos in (QosConfig(0.0, 40.0), QosConfig(0.0, 0.5), QOS):
        table = _edge_table(sc, PARAMS, BAND, qos)
        first, top = table.edges[0], table.edges[-1]
        cells = table.edges.size - 1
        centers = rng.uniform(110e9, 190e9, 6)
        steps = np.arange(1, 401) * step
        k = rng.integers(0, cells - 50, 40)
        parts = {
            "searches": (np.repeat(centers, steps.size) - np.tile(steps, 6) / 2,
                         np.repeat(centers, steps.size) + np.tile(steps, 6) / 2),
            "below": (cutoff + rng.uniform(0.0, first - cutoff, 50),
                      rng.uniform(110e9, 190e9, 50)),
            "above": (rng.uniform(110e9, 190e9, 50),
                      top + rng.uniform(FREQ_TOL, 1e9, 50)),
            "both": (cutoff + rng.uniform(0.0, first - cutoff, 50),
                     top + rng.uniform(FREQ_TOL, 1e9, 50)),
            "cell_edges": (table.edges[k], table.edges[k + rng.integers(1, 50, 40)]),
            "random": random_intervals(3),
            "pairs": cell_pairs(table, rng),
        }
        assert (parts["below"][0] <= first).all()
        assert (parts["above"][1] > top).all()
        lo = np.concatenate([p[0] for p in parts.values()])
        hi = np.concatenate([p[1] for p in parts.values()])
        order = rng.permutation(lo.size)
        for a, b in [*parts.values(), (lo, hi), (lo[order], hi[order]),
                     (lo[::-1], hi[::-1]), (lo[:1], hi[:1])]:
            got = table.certified(a, b)
            assert got.dtype == bool
            assert np.array_equal(got, certified_per_interval(table, a, b))
        assert not table.certified(*parts["both"]).any()
        assert table.certified(np.empty(0), np.empty(0)).shape == (0,)
        answers.append(table.certified(*parts["searches"]))
    certified = np.concatenate(answers)
    assert 0.1 < certified.mean() < 0.9


def test_steps_on_cell_edges_and_at_the_band_top_equal_the_exact_scan():
    """An edge on a stored cell edge belongs to the cell below it, whose
    bounds hold there; a search that runs to the band top looks its last
    step up in the last cell.  Both give the widths of the exact scan, as
    do the same searches with the cell-free check."""
    step = 10e6
    sc = make_scenario(seed=2, num_aps=8, num_ues=4)
    loose, gap = QosConfig(0.0, 40.0), QosConfig(0.0, 0.5)
    table = _edge_table(sc, PARAMS, BAND, loose)
    tables = [(loose, table), (gap, _edge_table(sc, PARAMS, BAND, gap))]
    lower, upper, _ = table_bounds(table, PARAMS, loose)
    # in [2^37, 2^38) Hz multiples of 5 MHz add and subtract exactly
    for k in np.searchsorted(table.edges, [140e9, 160e9, 188e9]):
        edge = table.edges[k]
        psd = received_strength_psd(sc, PARAMS, edge, envelope=True)
        assert np.all(lower[:, k - 1] <= psd) and np.all(psd <= upper[:, k - 1])
        for s in (1, 7, 40):
            center = edge + s * step / 2.0
            assert center - s * step / 2.0 == edge
            assert table.certified([edge], [center + s * step / 2.0])[0]
            for qos, qos_table in tables:
                want = stepwise_width(center, sc, qos, step, 10e9)[0]
                for t in (qos_table, cell_free_check(sc, PARAMS, BAND, qos)):
                    assert bandwidth_searches([center], t, step,
                                              max_bandwidth=10e9)[0] == want
    center = BAND[1] - 50 * step
    assert table.certified([center - 50 * step], [BAND[1]])[0]
    assert np.searchsorted(table.edges, BAND[1]) - 1 == table.edges.size - 2
    for qos, qos_table in tables:
        want, max_steps = stepwise_width(center, sc, qos, step, 10e9)
        for t in (qos_table, cell_free_check(sc, PARAMS, BAND, qos)):
            assert bandwidth_searches([center], t, step,
                                      max_bandwidth=10e9)[0] == want
    assert want == max_steps * step == 100 * step


def test_lockstep_widths_equal_one_center_searches_and_the_stepwise_scan(
        monkeypatch):
    """One ``bandwidth_searches`` batch mixes centers whose first steps the
    table certifies, centers within 50 MHz of cutoff, centers at the band
    top, centers below the access threshold and centers with no room at
    all; every width equals the one-center ``bandwidth_search`` and the
    stepwise exact scan, with each setting's table and with the cell-free
    check.  The edge checks go in shared calls of at most ``TIER_BATCH``
    intervals, 8-step blocks first: with the cell-free check the first
    call that reaches the envelope tier holds the first block of every
    search with room."""
    step, cap = 10e6, 10e9
    cutoff = PARAMS.cutoff_frequency
    sc = make_scenario(seed=4, num_aps=8, num_ues=4)
    centers = np.concatenate([
        np.random.default_rng(4).uniform(110e9, 190e9, 30),
        cutoff + np.array([2e6, 5e6, 20e6, 50e6]),
        BAND[1] - np.array([0.0, 5e6, 30e6, 200e6]),
        [cutoff, BAND[0] - 1e9, BAND[1] + 1e9]])
    center_psd = received_strength_psd(sc, PARAMS, centers[:-3]).min(axis=1)
    settings = (QosConfig(0.0, 40.0), QosConfig(0.0, 0.5),
                QosConfig(float(np.median(center_psd)), 0.5))
    calls = spy_edge_psds(monkeypatch)
    certified = zero = 0
    for qos in settings:
        table = _edge_table(sc, PARAMS, BAND, qos)
        cell_free = cell_free_check(sc, PARAMS, BAND, qos)
        widths = [stepwise_width(c, sc, qos, step, cap) for c in centers]
        want = [width for width, _ in widths]
        for t in (table, cell_free):
            calls.clear()
            got = bandwidth_searches(centers, t, step, cap)
            sizes = [n // 2 for envelope, n in calls if envelope]
            assert got.tolist() == want
            assert sizes and max(sizes) <= TIER_BATCH
            if t is cell_free:
                # the first call: the first blocks of all searches, a few
                # cut short by their room
                assert sizes[0] == sum(min(EDGE_BLOCKS[0], max_steps)
                                       for _, max_steps in widths
                                       if max_steps >= 1)
        for c, w in zip(centers, want):
            assert bandwidth_search(c, sc, PARAMS, BAND, qos, step, cap) == w
        certified += int(table.certified(centers[:-3] - step / 2.0,
                                         centers[:-3] + step / 2.0).sum())
        zero += want.count(0.0)
    assert certified >= 60 and zero >= 3 * 3 + 5


def test_lockstep_candidates_equal_one_candidate_evaluations():
    """``evaluate_candidates`` over a batch gives each candidate what
    ``evaluate_candidate`` gives it alone: stragglers on the cutoff, centers
    out of band, inaccessible and colliding centers included, with the
    edge check's table and with the cell-free check."""
    sc = make_scenario(seed=2)
    rng = np.random.default_rng(12)
    batch = [np.sort(rng.uniform(101e9, 199e9, 4)) for _ in range(20)]
    batch += [np.array([PARAMS.cutoff_frequency] * 3 + [150e9]),
              np.array([BAND[1], BAND[1], 150e9, 150.1e9]), np.array([])]
    alone = [evaluate_candidate(c, sc, PARAMS, BAND, QOS, 50e6, 2e9)
             for c in batch]
    for t in (_edge_table(sc, PARAMS, BAND, QOS),
              cell_free_check(sc, PARAMS, BAND, QOS)):
        got = evaluate_candidates(batch, t, 50e6, 2e9)
        assert got == alone
    assert got[-1] == ([], False)
    assert sum(accessible for _, accessible in got) >= 15


def test_a_failed_subchannel_fails_only_its_own_candidate(monkeypatch):
    """``score_batch`` rates a batch as one stack: a list with a center
    where the precoder fails scores None while the rest of the batch keeps
    the plans it gives each list alone.  In the search such a candidate
    counts as singular: when every accessible candidate has one failed
    subchannel, the search names the precoder."""
    import lwcf.cegmm
    sc = make_scenario(seed=3)
    rng = np.random.default_rng(3)
    batch = [subs for subs, _ in evaluate_candidates(
        [rng.uniform(110e9, 190e9, 3) for _ in range(12)],
        _edge_table(sc, PARAMS, BAND, QOS), 10e6, 10e9)]
    want = [score_batch([subs], sc, PARAMS, "zf")[0] for subs in batch]
    bad = batch[0][0][0]
    real = lwcf.cegmm.rate_densities
    failing = set()

    def flagged(scenario, params, frequencies, method):
        density, failed = real(scenario, params, frequencies, method)
        return density, failed | np.isin(frequencies, list(failing))

    monkeypatch.setattr(lwcf.cegmm, "rate_densities", flagged)
    failing.add(bad)
    got = score_batch(batch, sc, PARAMS, "zf")
    hit = [any(c == bad for c, _ in subs) for subs in batch]
    assert hit[0] and not all(hit)
    assert [plan is None for plan in got] == hit
    assert all(g == w for g, w, h in zip(got, want, hit) if not h)

    # the lowest center of every list of the iteration fails
    evaluate = lwcf.cegmm.evaluate_candidates
    accessible = []

    def spy(*args):
        out = evaluate(*args)
        failing.clear()
        failing.update(subs[0][0] for subs, _ in out if subs)
        accessible.extend(acc for _, acc in out)
        assert all(subs or not acc for subs, acc in out)
        assert any(len(subs) > 1 for subs, _ in out)
        return out

    monkeypatch.setattr(lwcf.cegmm, "evaluate_candidates", spy)
    hyper = CeHyperparams(num_samples=10, num_elites=3, max_iterations=2,
                          grid_step=10e6, num_subchannels=3)
    with pytest.raises(SingularChannel,
                       match="zf precoder failed on all 20 candidates"):
        allocate(sc, PARAMS, BAND, "zf", hyper, QOS,
                 np.random.default_rng(np.random.SeedSequence((3, 0))))
    assert sum(accessible) == 20


def test_edge_table_build_is_chunked(monkeypatch):
    """Building the table for the default drop (32 APs, 10 UEs) keeps its
    temporaries to the ``STACK_POINTS`` chunks of its one envelope PSD
    call; in one piece they take ~12 MB."""
    import tracemalloc

    import lwcf.mimo
    from lwcf.config import load_config
    from lwcf.scenario import generate_scenario as generate

    app = load_config()
    sc = generate(app.scenario)
    assert (sc.num_aps, sc.num_ues) == (32, 10)

    def peak_mb():
        tracemalloc.start()
        try:
            _edge_table(sc, app.params, app.band, app.qos)
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    assert peak_mb() < 4.0
    monkeypatch.setattr(lwcf.mimo, "STACK_POINTS", 10 ** 9)
    assert peak_mb() > 4.0


# ---------------------------------------------------------------------------
# plan validation helpers
# ---------------------------------------------------------------------------

def test_validate_plan_rejections():
    cutoff = PARAMS.cutoff_frequency
    validate_plan([(150e9, 2e9), (160e9, 2e9)], BAND, 10e9, cutoff)
    with pytest.raises(ValueError):
        validate_plan([(150e9, 2e9), (151e9, 2e9)], BAND, 10e9, cutoff)
    with pytest.raises(ValueError):
        validate_plan([(150e9, 2e9)], BAND, 1e9, cutoff)      # over budget
    with pytest.raises(ValueError):
        validate_plan([(199.5e9, 2e9)], BAND, 10e9, cutoff)   # leaves band
    with pytest.raises(ValueError):
        validate_plan([(100.1e9, 1e9)], BAND, 10e9, cutoff)   # below cutoff
    with pytest.raises(ValueError):
        # in the band, which starts at the cutoff, but with an edge on it
        validate_plan([(cutoff + 0.5e9, 1e9)], BAND, 10e9, cutoff)
    with pytest.raises(ValueError):
        validate_plan([(150e9, -1e9)], BAND, 10e9, cutoff)


def test_check_coherence_flags_wide_interval():
    sc = make_scenario(seed=1)
    assert not check_coherence([(150e9, 80e9)], sc, PARAMS, QOS)


# ---------------------------------------------------------------------------
# candidate evaluation and the allocator
# ---------------------------------------------------------------------------

def test_evaluate_candidate_filters_and_flags():
    sc = make_scenario(seed=1)
    table = _edge_table(sc, PARAMS, BAND, QOS)
    centers = [90e9, 150e9, 210e9]
    [(subs, accessible)] = evaluate_candidates([centers], table, 50e6, 10e9)
    assert accessible
    for c, w in subs:
        assert BAND[0] < c < BAND[1] and w > 0.0
    assert evaluate_candidate(centers, sc, PARAMS, BAND, QOS, 50e6,
                              10e9) == (subs, accessible)
    # an unreachable access threshold drops every center
    strict = QosConfig(min_rx_psd=1.0, coherence_gap_db=0.5)
    for t in (_edge_table(sc, PARAMS, BAND, strict),
              cell_free_check(sc, PARAMS, BAND, strict)):
        [(subs, accessible)] = evaluate_candidates([[150e9]], t, 50e6, 10e9)
        assert subs == [] and not accessible
    assert evaluate_candidate([150e9], sc, PARAMS, BAND, strict, 50e6,
                              10e9) == ([], False)


def test_straggler_clipped_onto_the_cutoff_is_skipped():
    """A mixture with no in-band mass leaves ``sample_gmm`` stragglers
    clipped onto the band's lower edge, which is the cutoff itself; the
    candidate skips them without evaluating the gain there, and they do
    not count as accessible."""
    assert BAND[0] == PARAMS.cutoff_frequency
    far_below = Gmm(np.array([1.0]), np.array([10e9]), np.array([1e12]))
    centers = sample_gmm(far_below, 4, np.random.default_rng(0), band=BAND)
    assert np.all(centers == PARAMS.cutoff_frequency)
    sc = make_scenario(seed=1)
    mixed = np.append(centers[:1], 150e9)
    assert evaluate_candidate(centers, sc, PARAMS, BAND, QOS, 50e6,
                              10e9) == ([], False)
    for t in (_edge_table(sc, PARAMS, BAND, QOS),
              cell_free_check(sc, PARAMS, BAND, QOS)):
        assert evaluate_candidates([centers], t, 50e6, 10e9) == [([], False)]
        # next to an accessible center the straggler changes nothing
        assert (evaluate_candidates([mixed], t, 50e6, 10e9)
                == evaluate_candidates([[150e9]], t, 50e6, 10e9))


def test_allocate_deterministic_and_valid():
    sc = make_scenario(seed=3)
    hyper = CeHyperparams(num_samples=20, num_elites=5, max_iterations=3,
                          grid_step=100e6, num_subchannels=3)
    plans = []
    for _ in range(2):
        rng = np.random.default_rng(np.random.SeedSequence((7, 0)))
        plans.append(allocate(sc, PARAMS, BAND, "zf", hyper, QOS, rng,
                              total_bandwidth=10e9))
    assert plans[0].subchannels == plans[1].subchannels
    assert plans[0].achieved_rate == plans[1].achieved_rate
    plan = plans[0]
    assert plan.achieved_rate > 0.0
    validate_plan(plan.subchannels, BAND, 10e9, PARAMS.cutoff_frequency)
    assert check_coherence(plan.subchannels, sc, PARAMS, QOS)
    assert plan.achieved_rate == pytest.approx(sum(plan.subchannel_rates),
                                               rel=1e-12)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_allocate_equals_the_exact_path(monkeypatch, seed):
    """With an infinite envelope ratio neither the table nor the envelope
    tier can decide, so every edge decision takes the exact path, and the
    plan is the same, field for field, as with the table."""
    import lwcf.cegmm

    sc = make_scenario(num_aps=8, num_ues=4, seed=seed)
    hyper = CeHyperparams(num_samples=10, num_elites=3, max_iterations=2,
                          grid_step=10e6, num_subchannels=3)

    def plan():
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        return allocate(sc, PARAMS, BAND, "zf", hyper, QOS, rng,
                        total_bandwidth=10e9)

    with_table = plan()
    assert with_table.subchannels
    monkeypatch.setattr(lwcf.cegmm, "envelope_ratio", lambda params: np.inf)
    calls = spy_edge_psds(monkeypatch)
    exact = plan()
    assert calls and not any(envelope for envelope, _ in calls)
    assert exact == with_table


@pytest.mark.parametrize("attenuation", [130.0, 13.0])
def test_allocators_equal_their_plans_without_a_table(monkeypatch,
                                                      attenuation):
    """``allocate`` and ``allocate_clustered`` give the same plans, field
    for field, with their search's table and with ``_edge_table`` patched
    to build the cell-free check, at 130 rad/m and at 13 rad/m with a
    -200 dBm/Hz access threshold, where the remainder is ~100 times wider
    (a 1.5 dB gap, since at 13 rad/m the envelope ratio alone spans
    1.25 dB).  In the runs with the table the per-interval tier proves
    steps good and bad."""
    import lwcf.cegmm
    from lwcf.cegmm import _EdgeCheck
    from lwcf.cluster_alloc import allocate_clustered
    from lwcf.clustering import kmeans_clustering

    params = AntennaParams(1.0, 0.15, attenuation, 100e9)
    qos = (QOS if attenuation == 130.0
           else QosConfig(min_rx_psd=10 ** -23.0, coherence_gap_db=1.5))
    sc = make_scenario(num_aps=8, num_ues=4, seed=5)
    hyper = CeHyperparams(num_samples=10, num_elites=3, max_iterations=2,
                          grid_step=10e6, num_subchannels=3)
    clustering = kmeans_clustering(sc, params, BAND[1], 2,
                                   np.random.default_rng(5))
    real = _EdgeCheck.interpolated
    verdicts = {"good": 0, "bad": 0}

    def spy(table, lo, hi):
        good, bad = real(table, lo, hi)
        verdicts["good"] += int(good.sum())
        verdicts["bad"] += int(bad.sum())
        return good, bad

    def plans():
        stream = lambda: np.random.default_rng(np.random.SeedSequence((5, 0)))
        return (allocate(sc, params, BAND, "zf", hyper, qos, stream(),
                         total_bandwidth=10e9),
                allocate_clustered(sc, params, BAND, "zf", hyper, qos,
                                   clustering, stream(),
                                   total_bandwidth=10e9))

    assert np.isfinite(_edge_table(sc, params, BAND, qos).rem).any()
    monkeypatch.setattr(_EdgeCheck, "interpolated", spy)
    with_table = plans()
    assert verdicts["good"] > 0 and verdicts["bad"] > 0
    assert with_table[0].subchannels and with_table[1].subchannels
    monkeypatch.setattr(lwcf.cegmm, "_edge_table", cell_free_check)
    assert plans() == with_table


@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_ce_search_refits_between_iterations_only(monkeypatch, iterations):
    """The proposal refit after the last iteration would never be sampled:
    ``max_iterations`` iterations make ``max_iterations - 1`` refits, and
    a one-iteration search makes none."""
    import lwcf.cegmm
    real = lwcf.cegmm.refit_proposal
    refits = []

    def spy(*args):
        refits.append(args)
        return real(*args)

    monkeypatch.setattr(lwcf.cegmm, "refit_proposal", spy)
    sc = make_scenario(num_aps=8, num_ues=4, seed=11)
    hyper = CeHyperparams(num_samples=5, num_elites=2,
                          max_iterations=iterations, grid_step=50e6,
                          num_subchannels=3)
    plan = allocate(sc, PARAMS, BAND, "zf", hyper, QOS,
                    np.random.default_rng(11), total_bandwidth=10e9)
    assert plan.achieved_rate > 0.0
    assert len(refits) == iterations - 1


def test_one_edge_table_per_search(monkeypatch):
    """``ce_search`` builds the one edge check of a search: an
    ``allocate`` and an ``allocate_clustered`` build one each, and a
    standalone search, candidate and overlap resolution one each too."""
    import lwcf.cegmm
    from lwcf.cluster_alloc import allocate_clustered
    from lwcf.clustering import kmeans_clustering

    sc = make_scenario(num_aps=8, num_ues=4, seed=11)
    hyper = CeHyperparams(num_samples=5, num_elites=2, max_iterations=2,
                          grid_step=50e6, num_subchannels=3)
    real = lwcf.cegmm._edge_table
    built = []

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(lwcf.cegmm, "_edge_table", spy)
    rng = np.random.default_rng(np.random.SeedSequence((11, 0)))
    allocate(sc, PARAMS, BAND, "zf", hyper, QOS, rng, total_bandwidth=10e9)
    assert len(built) == 1
    clustering = kmeans_clustering(sc, PARAMS, BAND[1], 2,
                                   np.random.default_rng(11))
    allocate_clustered(sc, PARAMS, BAND, "zf", hyper, QOS, clustering,
                       np.random.default_rng(np.random.SeedSequence((11, 0))),
                       total_bandwidth=10e9)
    assert len(built) == 2
    width = bandwidth_search(150e9, sc, PARAMS, BAND, QOS, 50e6,
                             max_bandwidth=10e9)
    subchannels, accessible = evaluate_candidate(
        [120e9, 150e9, 151e9], sc, PARAMS, BAND, QOS, 50e6, 1e9)
    resolve_overlaps([(150e9, width), (150.1e9, width)], sc, PARAMS, BAND,
                     QOS, 50e6, 1e9)
    assert width > 0.0 and subchannels and accessible
    assert len(built) == 5


def test_allocate_respects_budget():
    sc = make_scenario(seed=3)
    hyper = CeHyperparams(num_samples=15, num_elites=5, max_iterations=2,
                          grid_step=100e6, num_subchannels=4)
    rng = np.random.default_rng(np.random.SeedSequence((8, 0)))
    plan = allocate(sc, PARAMS, BAND, "zf", hyper, QOS, rng,
                    total_bandwidth=2e9)
    assert sum(w for _, w in plan.subchannels) <= 2e9 + 1e-3


def test_allocate_infeasible_band():
    sc = make_scenario(seed=3)
    hyper = CeHyperparams(num_samples=10, num_elites=3, max_iterations=2,
                          grid_step=100e6, num_subchannels=2)
    strict = QosConfig(min_rx_psd=1.0, coherence_gap_db=0.5)
    rng = np.random.default_rng(np.random.SeedSequence((9, 0)))
    with pytest.raises(InfeasibleBand):
        allocate(sc, PARAMS, BAND, "zf", hyper, strict, rng)


def test_allocate_reports_singular_channel_not_infeasible_band():
    """More UEs than APs: centers meet the access threshold, but zero forcing
    fails on every candidate, so the failure must name the precoder."""
    sc = make_scenario(num_aps=2, num_ues=3, seed=3)
    hyper = CeHyperparams(num_samples=10, num_elites=3, max_iterations=2,
                          grid_step=100e6, num_subchannels=2)

    def rng():
        return np.random.default_rng(np.random.SeedSequence((9, 0)))

    plan = allocate(sc, PARAMS, BAND, "mrt", hyper, QOS, rng())
    assert plan.achieved_rate > 0.0          # the band is accessible
    with pytest.raises(SingularChannel, match="zf precoder failed"):
        allocate(sc, PARAMS, BAND, "zf", hyper, QOS, rng())


def test_allocate_counts_zf_failures_at_every_candidate(monkeypatch):
    """K <= M passes the shape rule, but with no Gram condition accepted
    zero forcing fails at every accessible candidate; the search must count
    those failures and name the precoder, not report an inaccessible band."""
    import lwcf.mimo
    sc = make_scenario(num_aps=6, num_ues=3, seed=3)
    hyper = CeHyperparams(num_samples=10, num_elites=3, max_iterations=2,
                          grid_step=100e6, num_subchannels=2)

    def rng():
        return np.random.default_rng(np.random.SeedSequence((9, 0)))

    assert allocate(sc, PARAMS, BAND, "zf", hyper, QOS, rng()).achieved_rate > 0.0
    monkeypatch.setattr(lwcf.mimo, "MAX_ZF_CONDITION", 0.0)
    with pytest.raises(SingularChannel,
                       match=r"zf precoder failed on all \d+ candidates"):
        allocate(sc, PARAMS, BAND, "zf", hyper, QOS, rng())


def test_allocate_zf_with_more_ues_than_aps_fails_before_searching(
        monkeypatch):
    """K > M rules zero forcing out from the shapes alone, so the failure
    comes before any candidate is sampled or any received PSD evaluated."""
    import lwcf.cegmm
    real = lwcf.cegmm.received_strength_psd
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lwcf.cegmm, "received_strength_psd", spy)
    sc = make_scenario(num_aps=2, num_ues=3, seed=3)
    hyper = CeHyperparams(num_samples=10, num_elites=3, max_iterations=2,
                          grid_step=100e6, num_subchannels=2)
    rng = np.random.default_rng(np.random.SeedSequence((9, 0)))
    state = rng.bit_generator.state
    with pytest.raises(SingularChannel,
                       match="zf precoder failed.*K=3 UEs and M=2 APs"):
        allocate(sc, PARAMS, BAND, "zf", hyper, QOS, rng)
    assert len(calls) == 0
    assert rng.bit_generator.state == state
    # the spy does see the search when the precoder can serve the drop
    allocate(sc, PARAMS, BAND, "mrt", hyper, QOS, rng)
    assert len(calls) > 0


def test_allocate_single_subchannel_near_grid_optimum():
    """With one subchannel the optimiser should land near the best of a
    coarse center scan that uses the same width rule."""
    sc = make_scenario(num_aps=4, num_ues=2, seed=5)
    step = 100e6
    budget = 10e9
    best = 0.0
    for c in np.linspace(101e9, 199e9, 40):
        w = bandwidth_search(float(c), sc, PARAMS, BAND, QOS, step,
                             max_bandwidth=budget)
        if w > 0.0:
            psd = received_strength_psd(sc, PARAMS, float(c))
            if np.all(psd >= QOS.min_rx_psd):
                from lwcf.mimo import rate_density
                best = max(best, w * rate_density(sc, PARAMS, float(c), "zf"))
    assert best > 0.0
    hyper = CeHyperparams(num_samples=30, num_elites=8, max_iterations=8,
                          grid_step=step, num_subchannels=1)
    rng = np.random.default_rng(np.random.SeedSequence((11, 0)))
    plan = allocate(sc, PARAMS, BAND, "zf", hyper, QOS, rng,
                    total_bandwidth=budget)
    assert plan.achieved_rate >= 0.95 * best
